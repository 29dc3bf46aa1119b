// Cooperative cancellation and deadline propagation (DESIGN §13). A run
// accepts a context.Context through Options.Ctx; every engine layer polls a
// per-rank comm.Canceler at its deterministic iteration boundaries (GaneSH
// update steps, consensus peeling rounds, module-unit edges, task
// boundaries). Checks never consume PRNG draws and never reorder
// collectives, so cancellation is result-invisible until it fires — and a
// cancelled-then-resumed run is bit-identical to an uninterrupted one, the
// same guarantee the crash-recovery matrix proves for failures.
//
// On fire, the polling rank panics; the panic rides the existing comm
// abort-propagation path (every blocked rank releases with ErrAborted), the
// durable checkpoints written so far are the resume state, and the driver
// returns a *CancelledError wrapping ErrCancelled or ErrDeadline.

package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"parsimone/internal/comm"
)

// ErrCancelled is wrapped by every failure caused by Options.Ctx being
// cancelled (and by injected cancellations); ErrDeadline by failures caused
// by the context's deadline expiring. Both unwrap from the *CancelledError
// the drivers return.
var (
	ErrCancelled = errors.New("core: run cancelled")
	ErrDeadline  = errors.New("core: run deadline exceeded")
)

// CancelledError reports a run stopped by cooperative cancellation. The run
// drained cleanly: every checkpoint listed was written durably (fsync +
// atomic rename) before the error was returned, and re-running the same
// configuration against CheckpointDir resumes from them to the bit-identical
// network an uninterrupted run would have learned.
type CancelledError struct {
	// Cause is ErrCancelled or ErrDeadline.
	Cause error
	// CheckpointDir is Options.CheckpointDir ("" when the run was not
	// checkpointing — resumption then recomputes from scratch).
	CheckpointDir string
	// Checkpoints lists the durable checkpoint files present in
	// CheckpointDir at cancellation time, the inputs of a resume.
	Checkpoints []string
}

// Error names the cause and the resumable state left behind.
func (e *CancelledError) Error() string {
	if e.CheckpointDir == "" {
		return fmt.Sprintf("%v (no checkpoint directory; resume recomputes from scratch)", e.Cause)
	}
	if len(e.Checkpoints) == 0 {
		return fmt.Sprintf("%v (checkpoint directory %s is empty; resume recomputes from scratch)", e.Cause, e.CheckpointDir)
	}
	return fmt.Sprintf("%v (drained to checkpoint %s: %s)", e.Cause, e.CheckpointDir, strings.Join(e.Checkpoints, ", "))
}

// Unwrap exposes the cause for errors.Is(err, ErrCancelled/ErrDeadline).
func (e *CancelledError) Unwrap() error { return e.Cause }

// cancelReason maps the context's terminal state to the package sentinel,
// evaluated at fire time so a deadline expiry is distinguishable from an
// explicit cancel. With no context (or an injected cancellation, where the
// context is still live) it reports ErrCancelled.
func cancelReason(ctx context.Context) func() error {
	return func() error {
		if ctx != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return ErrDeadline
		}
		return ErrCancelled
	}
}

// newCanceler builds one rank's Canceler from the run options: the signal
// is Options.Ctx's done channel (nil context → counting-only), and an
// Inject.CancelAt targeting this rank arms the deterministic test
// injection. Every rank creates one even without a context, so
// Output.CancelChecks is always a meaningful probe.
func newCanceler(opt Options, rank int) *comm.Canceler {
	var done <-chan struct{}
	var ctx context.Context
	if opt.Ctx != nil {
		ctx = opt.Ctx
		done = ctx.Done()
	}
	cl := comm.NewCanceler(done, cancelReason(ctx))
	if opt.Inject != nil && opt.Inject.CancelAt > 0 && opt.Inject.Rank == rank {
		cl.InjectAt(opt.Inject.CancelAt)
	}
	return cl
}

// isCancel reports whether err carries a cancellation sentinel.
func isCancel(err error) bool {
	return errors.Is(err, ErrCancelled) || errors.Is(err, ErrDeadline)
}

// cancelledError distills a cancellation failure into the *CancelledError
// the drivers return, recording the durable checkpoints left behind.
func cancelledError(err error, opt Options) *CancelledError {
	cause := ErrCancelled
	if errors.Is(err, ErrDeadline) {
		cause = ErrDeadline
	}
	return &CancelledError{
		Cause:         cause,
		CheckpointDir: opt.CheckpointDir,
		Checkpoints:   DurableCheckpoints(opt.CheckpointDir),
	}
}

// DurableCheckpoints lists the durable checkpoint files present in dir: the
// three names a resume reads (ensembles, modules, progress), in that order.
// Temp files and anything else in the directory are not resume state and
// are not listed; dir == "" (checkpointing off) lists nothing.
func DurableCheckpoints(dir string) []string {
	if dir == "" {
		return nil
	}
	var names []string
	for _, name := range []string{ckptEnsembles, ckptModules, ckptProgress} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			names = append(names, name)
		}
	}
	return names
}

// sweepTempCheckpoints removes orphaned checkpoint temp files — the
// leftovers of an atomic rename interrupted between write and rename. They
// are never read (loads open only the final names, and writeCheckpointFile
// truncates its temp file before writing), so the sweep is pure hygiene:
// without it a killed run leaves a *.tmp in the directory forever. Called
// at resume time by the checkpoint-writing rank only, before any load and
// before its writer has a file queued, so it cannot race a write.
func sweepTempCheckpoints(dir string) error {
	for _, name := range []string{ckptEnsembles, ckptModules, ckptProgress} {
		if err := os.Remove(filepath.Join(dir, name+".tmp")); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("core: sweeping stale checkpoint temp file: %w", err)
		}
	}
	return nil
}
