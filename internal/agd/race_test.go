//go:build race

package agd

func init() { raceEnabled = true }
