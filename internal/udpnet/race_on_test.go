//go:build race

package udpnet

// raceBuild reports that the race detector is on. sync.Pool then drops a
// random quarter of its Puts, so allocation budgets over pooled paths do not
// hold.
const raceBuild = true
