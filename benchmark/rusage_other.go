//go:build !darwin

package main

// maxrssUnitBytes is the unit of Rusage.Maxrss: Linux and the BSDs report
// kilobytes.
const maxrssUnitBytes = 1024
