//go:build darwin

package main

// maxrssUnitBytes is the unit of Rusage.Maxrss: Darwin reports bytes.
const maxrssUnitBytes = 1
