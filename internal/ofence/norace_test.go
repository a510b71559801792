//go:build !race

package ofence

const raceEnabled = false
