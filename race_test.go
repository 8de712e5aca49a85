//go:build race

package persona

func init() { raceEnabled = true }
