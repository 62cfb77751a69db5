//go:build race

package assign

// raceEnabled gates allocation pins that sync.Pool invalidates under
// the race detector (it drops Put items randomly to widen schedules).
const raceEnabled = true
