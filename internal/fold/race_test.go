//go:build race

package fold

func init() { raceEnabled = true }
