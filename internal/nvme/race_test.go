//go:build race

package nvme

func init() { raceEnabled = true }
