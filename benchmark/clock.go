package main

import (
	"fmt"
	"os"
	"strings"
	"syscall"
	"time"
)

// The benchmark's only wall-clock reads. Everything the harness times goes
// through these two helpers, so the determinism lint audits one place.

func now() time.Time {
	return time.Now() //parsivet:wallclock — benchmark harness timing; never feeds learned state
}

func since(t time.Time) time.Duration {
	return time.Since(t) //parsivet:wallclock — benchmark harness timing; never feeds learned state
}

// rusage reads the process's resource usage. A failure leaves the zero
// value: on the supported platform (Linux) RUSAGE_SELF cannot fail.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the user+system CPU time the process has consumed so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set: VmHWM of /proc/self/status.
// ru_maxrss would do on a process started by a shell, but Linux carries it
// across execve, so under `go run` it reports the go command's own peak
// whenever that is larger. It remains the fallback (KiB on Linux).
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			var kb float64
			if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
				return kb / 1024
			}
		}
	}
	return float64(rusage().Maxrss) / 1024
}
