// Seeded errsink cases: carriers that propagate wire/comm/checkpoint
// errors up one or two levels before a caller discards them, plus the
// direct discards of an origin.
package store

import (
	"parsimone/internal/comm"
	"parsimone/internal/wire"
)

// load is a one-hop carrier: it returns wire.DecodeFile's error.
func load(data []byte) error {
	_, err := wire.DecodeFile(data, wire.KindNetwork, nil)
	return err
}

// restore is a two-hop carrier: restore → load → wire.DecodeFile.
func restore(data []byte) error { return load(data) }

func dropStatement(data []byte) {
	load(data) // want "error from store.load discarded: it propagates comm/wire/checkpoint failures \\(store.load → wire.DecodeFile\\)"
}

func dropBlank(data []byte) {
	_ = restore(data) // want "error from store.restore discarded: it propagates comm/wire/checkpoint failures \\(store.restore → store.load → wire.DecodeFile\\)"
}

func dropDefer(data []byte) {
	defer load(data) // want "error from store.load discarded"
}

func dropGo(data []byte) {
	go restore(data) // want "error from store.restore discarded"
}

// dropDirectWire discards a wire origin in statement position.
func dropDirectWire(data []byte) {
	wire.DecodeFile(data, wire.KindNetwork, nil) // want "error from wire.DecodeFile discarded"
}

// dropRunBlank blanks the error position of a direct comm origin.
func dropRunBlank() {
	_, _ = comm.Run(1, func(c *comm.Comm) error { return nil }) // want "error from comm.Run discarded"
}

// readProgress names durable state: its error result is an origin by
// name even though it calls no I/O here.
func readProgress() error { return nil }

// dropProgressStatement drops a checkpoint-named origin in statement
// position.
func dropProgressStatement() {
	readProgress() // want "error from store.readProgress discarded"
}

func dropProgressBlank() {
	_ = readProgress() // want "error from store.readProgress discarded"
}

func droppedRun(p int) {
	comm.Run(p, func(c *comm.Comm) error { return nil }) // want "discarded"
}

func handledRun(p int) error {
	_, err := comm.Run(p, func(c *comm.Comm) error { return nil })
	return err
}

func saveCheckpoint(dir string) error {
	_ = dir
	return nil
}

func droppedCheckpoint() {
	saveCheckpoint("state") // want "discarded"
}

func handledCheckpoint() error {
	return saveCheckpoint("state")
}

// handled consumes the carrier's error: clean.
func handled(data []byte) error {
	if err := restore(data); err != nil {
		return err
	}
	return nil
}

// swallow handles the error internally and returns none, ending the
// chain: discarding swallow's (absent) result can never lose the wire
// failure, and callers dropping swallow stay clean.
func swallow(data []byte) {
	if err := load(data); err != nil {
		panic(err)
	}
}

func callsSwallow(data []byte) {
	swallow(data)
}

// audited carries the justification on the line above the discard.
func audited(data []byte) {
	//parsivet:errsink — audited: best-effort cache warm, failure re-read on demand (testdata)
	_ = restore(data)
}

// pair keeps the error in a named variable and returns it: clean.
func pair(data []byte) error {
	err := load(data)
	return err
}
