//go:build race

package core

// raceBuild reports that the race detector is on. Instrumented code then
// builds append(s, make([]T, k)...) as a separate allocation plus a copy, so
// growth costs twice its bytes.
const raceBuild = true
