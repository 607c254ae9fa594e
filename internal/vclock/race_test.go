//go:build race

package vclock

func init() { raceEnabled = true }
