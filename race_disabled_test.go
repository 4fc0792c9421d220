//go:build !race

package charmgo_test

// raceEnabled reports whether the race detector is compiled in. Byte bounds
// of the allocation guards hold only without it: the race runtime allocates
// its own bookkeeping and randomly drops sync.Pool items.
const raceEnabled = false
