// Recovery experiment: cost of the fault-tolerance layer. The paper's
// pipeline persists intermediate artifacts so a multi-day run survives
// failures (§5.3); this experiment measures both halves of that bargain —
// the checkpointing overhead an uninterrupted run pays, and the work a
// crashed run saves by resuming from the per-module progress manifest
// instead of starting over — and verifies the recovered network is
// bit-identical to the uninterrupted one at every crash point, with the
// on-disk footprint and the warm-resume latency alongside.

package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"parsimone/internal/core"
	"parsimone/internal/result"
)

// Recovery times a supervised crash-and-restart at each task boundary and at
// the first, middle, and last module, against the uninterrupted run.
func Recovery(scale Scale) *Table {
	n, m := 48, 24
	if scale == Full {
		n, m = 120, 40
	}
	d := genData(n, m, 2)
	opt := runOptions(2)
	const p = 2

	timeRun := func(o core.Options) (*core.Output, time.Duration) {
		start := time.Now()
		out, err := core.LearnParallel(p, d, o)
		if err != nil {
			panic(err)
		}
		return out, time.Since(start)
	}

	clean, cleanDur := timeRun(opt)
	nm := len(clean.Network.Modules)

	tab := &Table{
		Title:  fmt.Sprintf("Crash recovery: %d×%d, p=%d, %d modules", n, m, p, nm),
		Header: []string{"crash point", "time", "vs clean", "ckpt bytes", "identical", "restarts"},
	}
	tab.AddRow("none", fmtDur(cleanDur), "1.00x", "-", "-", "0")

	vsClean := func(dur time.Duration) string {
		return fmt.Sprintf("%.2fx", dur.Seconds()/cleanDur.Seconds())
	}

	// Overhead and footprint: the uninterrupted run with checkpoint
	// persistence on, then a warm resume over the finished directory (the
	// save/load latency of a fully populated checkpoint set).
	dir, err := os.MkdirTemp("", "parsimone-recovery-")
	if err != nil {
		panic(err)
	}
	withCkpt := opt
	withCkpt.CheckpointDir = dir
	ckptOut, ckptDur := timeRun(withCkpt)
	ckptBytes := fmt.Sprintf("%d", dirSize(dir))
	tab.AddRow("none (checkpointing)", fmtDur(ckptDur), vsClean(ckptDur), ckptBytes,
		yesNo(result.Equal(ckptOut.Network, clean.Network)), "0")
	resumed, resumeDur := timeRun(withCkpt)
	tab.AddRow("resume (warm ckpt)", fmtDur(resumeDur), vsClean(resumeDur), ckptBytes,
		yesNo(result.Equal(resumed.Network, clean.Network)), "0")
	os.RemoveAll(dir)

	failpoints := []string{core.TaskGaneSH, core.TaskConsensus}
	seen := map[string]bool{}
	for _, mi := range []int{0, nm / 2, nm - 1} {
		fp := fmt.Sprintf("module:%d", mi)
		if !seen[fp] {
			seen[fp] = true
			failpoints = append(failpoints, fp)
		}
	}
	for _, fp := range failpoints {
		dir, err := os.MkdirTemp("", "parsimone-recovery-")
		if err != nil {
			panic(err)
		}
		injected := opt
		injected.CheckpointDir = dir
		injected.MaxRestarts = 1
		injected.Inject = &core.FaultSpec{Task: fp, Rank: 0}
		out, dur := timeRun(injected)
		tab.AddRow("crash@"+fp, fmtDur(dur), vsClean(dur),
			fmt.Sprintf("%d", dirSize(dir)),
			yesNo(result.Equal(out.Network, clean.Network)),
			fmt.Sprintf("%d", len(out.Recovery)))
		os.RemoveAll(dir)
	}

	tab.Notes = append(tab.Notes,
		"each crash row runs to the failpoint, dies, restarts, and resumes from checkpoints",
		"later crash points resume more completed work, so their total time approaches 1x + the pre-crash work",
		"'identical' compares the recovered network bit-for-bit against the uninterrupted run",
		"'ckpt bytes' is the on-disk footprint of the binary checkpoints when the run finished",
		"'resume (warm ckpt)' reruns over a finished checkpoint directory: pure load-and-verify latency")
	return tab
}

// dirSize sums the file sizes directly inside dir.
func dirSize(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && !fi.IsDir() {
			total += fi.Size()
		}
	}
	return total
}

// yesNo renders a boolean for table cells.
func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
