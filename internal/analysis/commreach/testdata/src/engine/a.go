// Seeded commreach cases against the real internal/comm package: calls
// under rank-dependent guards whose callees reach a collective one or two
// hops down.
package engine

import "parsimone/internal/comm"

func add(a, b int) int { return a + b }

// exchange bears a collective directly (one hop from its callers).
func exchange(c *comm.Comm, v int) int { return comm.AllReduce(c, v, add) }

// fuse bears a collective two hops down: fuse → exchange → comm.AllReduce.
func fuse(c *comm.Comm, v int) int { return exchange(c, v+1) }

func guardedDeep(c *comm.Comm, v int) int {
	if c.Rank() == 0 {
		return fuse(c, v) // want "call to engine.fuse under a rank-dependent conditional reaches a collective: engine.fuse → engine.exchange → comm.AllReduce"
	}
	return 0
}

func guardedShallow(c *comm.Comm, v int) int {
	rank := c.Rank()
	switch rank {
	case 0:
		return exchange(c, v) // want "engine.exchange → comm.AllReduce"
	}
	return 0
}

// symmetric reaches the collective on every rank: clean.
func symmetric(c *comm.Comm, v int) int { return fuse(c, v) }

// guardedP2P is the naturally rank-conditional point-to-point shape:
// Send/Recv bear no collective, so the guard is fine.
func guardedP2P(c *comm.Comm) {
	if c.Rank() == 0 {
		comm.Send(c, 1, 1)
	}
}

// guardedDirect writes the collective itself in the guarded branch: the
// chain is the collective alone.
func guardedDirect(c *comm.Comm) {
	if c.Rank() == 0 {
		comm.Barrier(c) // want "call to comm.Barrier under a rank-dependent conditional reaches a collective: comm.Barrier;"
	}
}

// worldSizeGuard branches on the world size, which every rank holds equal:
// all ranks take the branch together, so the collective is symmetric.
func worldSizeGuard(c *comm.Comm) {
	ranks := c.Size()
	if ranks > 1 {
		comm.Barrier(c)
	}
}

// myRankGuard branches on the caller's own rank under another name.
func myRankGuard(c *comm.Comm, v int) int {
	myRank := c.Rank()
	if myRank == 0 {
		return exchange(c, v) // want "engine.exchange → comm.AllReduce"
	}
	return 0
}

// remainderGuard: a name read after the rank does not clear the guard.
func remainderGuard(c *comm.Comm, v int) int {
	if rank, rem := c.Rank(), v%c.Size(); rank < rem {
		return exchange(c, v) // want "engine.exchange → comm.AllReduce"
	}
	return 0
}

// audited carries the justification where the guarded call is taken.
func audited(c *comm.Comm, v int) int {
	if c.Rank() == 0 {
		//parsivet:commreach — audited: size-1 sub-communicator, cannot deadlock (testdata)
		return fuse(c, v)
	}
	return 0
}

// pureGuarded calls only collective-free helpers under the guard: clean.
func pureGuarded(c *comm.Comm, v int) int {
	if c.Rank() == 0 {
		return add(v, 1)
	}
	return 0
}
