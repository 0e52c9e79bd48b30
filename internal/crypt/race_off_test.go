//go:build !race

package crypt

const raceEnabled = false
