module persona/bench

go 1.24

require persona v0.0.0

replace persona => ../
