// The run's one checkpoint writer (DESIGN §7). Rank 0 encodes each
// checkpoint on the learning goroutine and queues its bytes; one background
// goroutine writes the files with the atomic, durable protocol of
// writeCheckpointFile, so the fsyncs leave the learn's critical path. run
// closes the writer on every exit — return, error, cancel, panic — and the
// close waits until every queued file is durable, so whoever looks at the
// directory after the run (the caller, a CancelledError, the next supervised
// world, a restarted daemon) sees the files a synchronous writer would have
// left.

package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"parsimone/internal/module"
)

// checkpointWriter queues encoded checkpoint files and writes them in the
// order they were first queued. A newer save of a file replaces a queued
// one that has not started, so the O(modules²) bytes of the per-module
// manifest rewrites are bounded by the disk's speed, not added to the learn.
type checkpointWriter struct {
	dir  string
	mu   sync.Mutex
	wake *sync.Cond // signalled when a file is queued or the writer closes

	// Guarded by mu: the names queued and not started, in first-queued
	// order, their bytes, whether close was called, and the first write
	// error.
	order  []string
	data   map[string][]byte
	closed bool
	err    error

	done chan struct{} // closed when the goroutine has exited
}

// startCheckpointWriter creates dir durably and starts the writer goroutine.
func startCheckpointWriter(dir string) (*checkpointWriter, error) {
	if err := mkdirDurable(dir); err != nil {
		return nil, fmt.Errorf("core: creating checkpoint directory %s: %w", dir, err)
	}
	w := &checkpointWriter{dir: dir, data: map[string][]byte{}, done: make(chan struct{})}
	w.wake = sync.NewCond(&w.mu)
	//parsivet:seqcount — moves checkpoint bytes already encoded on the learning goroutine to disk; feeds nothing back into the result
	go w.writeCheckpoints()
	return w, nil
}

// queueCheckpoint encodes v and queues it as file name. It returns the
// first error an earlier write met; the run then stops, as it would have at
// that write.
func (w *checkpointWriter) queueCheckpoint(name string, v wireCheckpoint) error {
	data := encodeCheckpoint(v)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if _, queued := w.data[name]; !queued {
		w.order = append(w.order, name)
	}
	w.data[name] = data
	w.wake.Signal()
	return nil
}

// queueProgress queues the whole progress manifest, units sorted by module
// index. Manifests are small relative to the work a module represents, so
// whole-file rewrites keep the format trivial.
func (w *checkpointWriter) queueProgress(st ckptStamp, units map[int]*module.Unit) error {
	ck := progressCheckpoint{ckptStamp: st}
	for _, u := range units {
		ck.Units = append(ck.Units, u)
	}
	sort.Slice(ck.Units, func(i, j int) bool { return ck.Units[i].Module < ck.Units[j].Module })
	return w.queueCheckpoint(ckptProgress, &ck)
}

// closeCheckpoints waits until every queued file is durable and the writer
// goroutine has exited, and returns the first write error.
func (w *checkpointWriter) closeCheckpoints() error {
	w.mu.Lock()
	w.closed = true
	w.wake.Signal()
	w.mu.Unlock()
	<-w.done
	return w.err
}

// writeCheckpoints is the writer goroutine: it writes queued files until the
// writer is closed and the queue is empty. After the first error it drops
// the queue, since the run stops there.
func (w *checkpointWriter) writeCheckpoints() {
	defer close(w.done)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for len(w.order) == 0 && !w.closed {
			w.wake.Wait()
		}
		if len(w.order) == 0 {
			return
		}
		name := w.order[0]
		data := w.data[name]
		w.order = w.order[1:]
		delete(w.data, name)
		w.mu.Unlock()
		err := writeCheckpointFile(w.dir, name, data)
		w.mu.Lock()
		if err != nil {
			w.err = err
			w.order, w.data = nil, map[string][]byte{}
		}
	}
}

// writeCheckpointFile writes data as file name of dir atomically and
// durably: write a temp file, fsync it, rename it over the final name, and
// fsync the directory. Without the fsyncs a crash can leave a
// renamed-but-truncated file that loadCheckpoint rejects on resume; a stale
// .tmp from an earlier crash is simply overwritten.
func writeCheckpointFile(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// mkdirDurable creates dir and its missing parents, as os.MkdirAll does, and
// fsyncs the parent of every level it creates: a directory entry is durable
// only once its parent is synced, and without it a power loss can take a new
// checkpoint directory away together with the files fsynced into it.
func mkdirDurable(dir string) error {
	dir = filepath.Clean(dir)
	if fi, err := os.Stat(dir); err == nil {
		if !fi.IsDir() {
			return &fs.PathError{Op: "mkdir", Path: dir, Err: syscall.ENOTDIR}
		}
		return nil
	}
	parent := filepath.Dir(dir)
	if parent != dir {
		if err := mkdirDurable(parent); err != nil {
			return err
		}
	}
	if err := os.Mkdir(dir, 0o755); err != nil && !errors.Is(err, fs.ErrExist) {
		return err
	}
	return syncDir(parent)
}

// syncDir fsyncs a directory, making the entries created in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
