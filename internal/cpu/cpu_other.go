//go:build !amd64

package cpu

func hasAVX2() bool { return false }

func hasFMA() bool { return false }
