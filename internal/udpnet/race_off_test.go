//go:build !race

package udpnet

const raceBuild = false
