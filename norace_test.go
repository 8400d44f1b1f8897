//go:build !race

package rio_test

const raceEnabled = false
