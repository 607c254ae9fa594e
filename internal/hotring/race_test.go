//go:build race

package hotring

func init() { raceEnabled = true }
