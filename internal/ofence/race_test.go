//go:build race

package ofence

// raceEnabled reports whether the tests run under the race detector, which
// slows the front end several times over.
const raceEnabled = true
