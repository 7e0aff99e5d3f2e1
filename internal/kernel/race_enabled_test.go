//go:build race

package kernel_test

func init() { raceEnabled = true }
