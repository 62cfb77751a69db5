//go:build !race

package assign

const raceEnabled = false
