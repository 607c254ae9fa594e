//go:build race

package ftl

func init() { raceEnabled = true }
