// Seeded cases of collectives written directly under rank-dependent
// conditionals, against the real internal/comm package.
package driver

import "parsimone/internal/comm"

func guardedCollective(c *comm.Comm) {
	if c.Rank() == 0 {
		comm.Barrier(c) // want "rank-dependent conditional"
	}
}

func guardedElseBranch(c *comm.Comm, v int) int {
	if c.Rank() != 0 {
		return v
	} else {
		return comm.AllReduce(c, v, func(a, b int) int { return a + b }) // want "rank-dependent conditional"
	}
}

func rankVariableSwitch(c *comm.Comm) {
	rank := c.Rank()
	switch rank {
	case 0:
		comm.Barrier(c) // want "rank-dependent conditional"
	}
}

// rootGuard: an identifier read after the rank does not clear the guard.
func rootGuard(c *comm.Comm, root int) {
	if c.Rank() == root {
		comm.Barrier(c) // want "rank-dependent conditional"
	}
}

func symmetricCollectives(c *comm.Comm, v int) int {
	comm.Barrier(c)
	return comm.Bcast(c, 0, v)
}

func guardedCounter(c *comm.Comm) *comm.Counter {
	if c.Rank() == 0 {
		return comm.NewCounter(c) // want "rank-dependent conditional"
	}
	return nil
}

// counterNextIsFine: a rank takes from a shared counter as often as its
// schedule lets it; only creating the counter is collective.
func counterNextIsFine(c *comm.Comm) int {
	ct := comm.NewCounter(c)
	if c.Rank() == 0 {
		return ct.Next(c)
	}
	return 0
}

func pointToPointIsFine(c *comm.Comm, v int) int {
	if c.Rank() == 0 {
		comm.Send(c, 1, v)
		return v
	}
	return comm.Recv[int](c, 0)
}

func audited(c *comm.Comm) {
	if c.Rank() == 0 {
		//parsivet:commreach — audited: sub-communicator of size 1 (testdata)
		comm.Barrier(c)
	}
}
