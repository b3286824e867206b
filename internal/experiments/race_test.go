//go:build race

package experiments

// raceEnabled is true under the race detector, which makes sync.Pool
// drop and reorder items at random: pooled-allocation counts are noise
// there.
const raceEnabled = true
