package comm

import (
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"parsimone/internal/quickseed"
)

// sizes exercised by most collective tests, including non-powers of two.
var sizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func TestRunInvalidSize(t *testing.T) {
	for _, p := range []int{0, -1} {
		if _, err := Run(p, func(c *Comm) error { return nil }); err == nil {
			t.Errorf("Run(%d) succeeded, want error", p)
		}
	}
}

func TestRunRanksAndSize(t *testing.T) {
	for _, p := range sizes {
		seen := make([]bool, p)
		_, err := Run(p, func(c *Comm) error {
			if c.Size() != p {
				return fmt.Errorf("size %d, want %d", c.Size(), p)
			}
			seen[c.Rank()] = true // each rank writes its own slot
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for k, ok := range seen {
			if !ok {
				t.Fatalf("p=%d: rank %d never ran", p, k)
			}
		}
	}
}

func TestRunReportsError(t *testing.T) {
	wantErr := errors.New("boom")
	_, err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return wantErr
		}
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 2 || !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want RankError{Rank:2, boom}", err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	_, err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("kaboom")
		}
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 || re.Stack == "" {
		t.Fatalf("got %v, want RankError with stack from rank 1", err)
	}
}

func TestSendRecvPair(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, 42)
			if got := Recv[string](c, 1); got != "hello" {
				return fmt.Errorf("got %q", got)
			}
		} else {
			if got := Recv[int](c, 0); got != 42 {
				return fmt.Errorf("got %d", got)
			}
			Send(c, 0, "hello")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvOutOfOrderSenders(t *testing.T) {
	// Rank 0 receives from rank 2 first even if rank 1's message arrives
	// earlier; the stashed message must still be delivered afterwards.
	_, err := Run(3, func(c *Comm) error {
		switch c.Rank() {
		case 1:
			Send(c, 0, 100)
		case 2:
			Send(c, 0, 200)
		case 0:
			if got := Recv[int](c, 2); got != 200 {
				return fmt.Errorf("from 2: got %d", got)
			}
			if got := Recv[int](c, 1); got != 100 {
				return fmt.Errorf("from 1: got %d", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvPreservesPerSenderOrder(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 50; i++ {
				Send(c, 1, i)
			}
		} else {
			for i := 0; i < 50; i++ {
				if got := Recv[int](c, 0); got != i {
					return fmt.Errorf("message %d arrived as %d", i, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendInvalidRankPanics(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 5, 1)
		}
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("got %v, want panic RankError from rank 0", err)
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, p := range sizes {
		for root := 0; root < p; root++ {
			_, err := Run(p, func(c *Comm) error {
				v := -1
				if c.Rank() == root {
					v = 1000 + root
				}
				got := Bcast(c, root, v)
				if got != 1000+root {
					return fmt.Errorf("rank %d got %d", c.Rank(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestBcastSlice(t *testing.T) {
	_, err := Run(5, func(c *Comm) error {
		var v []float64
		if c.Rank() == 0 {
			v = []float64{1.5, 2.5, 3.5}
		}
		got := Bcast(c, 0, v)
		if len(got) != 3 || got[2] != 3.5 {
			return fmt.Errorf("rank %d got %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSum(t *testing.T) {
	for _, p := range sizes {
		want := p * (p - 1) / 2
		_, err := Run(p, func(c *Comm) error {
			got := AllReduce(c, c.Rank(), func(a, b int) int { return a + b })
			if got != want {
				return fmt.Errorf("rank %d got %d want %d", c.Rank(), got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllReduceMax(t *testing.T) {
	_, err := Run(7, func(c *Comm) error {
		got := AllReduce(c, (c.Rank()*3)%7, func(a, b int) int { return max(a, b) })
		if got != 6 {
			return fmt.Errorf("got %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceRankOrderDeterministic(t *testing.T) {
	// 2a+b is not associative, so only the left fold in rank order gives
	// want, whatever path the values took to the folding rank.
	op := func(a, b int) int { return 2*a + b }
	for _, p := range sizes {
		want := 1
		for k := 1; k < p; k++ {
			want = op(want, k+1)
		}
		_, err := Run(p, func(c *Comm) error {
			if got := AllReduce(c, c.Rank()+1, op); got != want {
				return fmt.Errorf("rank %d got %d want %d", c.Rank(), got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestBarrierCompletes(t *testing.T) {
	_, err := Run(8, func(c *Comm) error {
		for i := 0; i < 10; i++ {
			Barrier(c)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllGather: every collective but Bcast is one all-gather. At each size
// its result is in rank order on every rank; each rank enters one collective
// and makes ⌈log₂ p⌉ sends; and the world sends (p−1)·Σ elems elements, each
// rank's contribution reaching the p−1 others once. AllGatherv is nil when
// every rank contributes nothing and skips the empty ranks otherwise.
func TestAllGather(t *testing.T) {
	// part is rank r's AllGatherv contribution, empty on every third rank.
	part := func(r int) []int {
		v := make([]int, r%3)
		for i := range v {
			v[i] = 10*r + i
		}
		return v
	}
	for _, p := range sizes {
		rounds := int64(bits.Len(uint(p - 1))) // ⌈log₂ p⌉
		var gathered, concat []int
		fold := 1
		for r := range p {
			gathered = append(gathered, 10*r)
			concat = append(concat, part(r)...)
			if r > 0 {
				fold = 2*fold + r + 1
			}
		}
		for _, tc := range []struct {
			name  string
			run   func(c *Comm) any
			want  any
			elems func(r int) int // elements rank r contributes
		}{
			{"AllGather", func(c *Comm) any { return AllGather(c, 10*c.Rank()) }, gathered, func(int) int { return 1 }},
			{"AllGatherv", func(c *Comm) any { return AllGatherv(c, part(c.Rank())) }, concat, func(r int) int { return len(part(r)) }},
			{"AllGatherv/empty", func(c *Comm) any { return AllGatherv(c, []int{}) }, []int(nil), func(int) int { return 0 }},
			{"AllReduce", func(c *Comm) any {
				return AllReduce(c, c.Rank()+1, func(a, b int) int { return 2*a + b })
			}, fold, func(int) int { return 1 }},
			{"Barrier", func(c *Comm) any { Barrier(c); return nil }, nil, func(int) int { return 1 }},
		} {
			stats, err := Run(p, func(c *Comm) error {
				if got := tc.run(c); !reflect.DeepEqual(got, tc.want) {
					return fmt.Errorf("rank %d got %#v, want %#v", c.Rank(), got, tc.want)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, p, err)
			}
			var elems, want int64
			for r, st := range stats {
				if st.Collectives != 1 || st.Sends != rounds {
					t.Errorf("%s p=%d rank %d: %d collectives, %d sends; want 1, %d", tc.name, p, r, st.Collectives, st.Sends, rounds)
				}
				elems += st.Elems
				want += int64((p - 1) * tc.elems(r))
			}
			if elems != want {
				t.Errorf("%s p=%d: the world sent %d elements, want (p−1)·Σ elems = %d", tc.name, p, elems, want)
			}
		}
	}
}

// TestAllGatherv checks the concatenation in rank order when one rank
// contributes nothing.
func TestAllGatherv(t *testing.T) {
	_, err := Run(3, func(c *Comm) error {
		local := make([]int, c.Rank()) // rank 0 contributes nothing
		for i := range local {
			local[i] = c.Rank()*100 + i
		}
		got := AllGatherv(c, local)
		want := []int{100, 200, 201}
		if len(got) != len(want) {
			return fmt.Errorf("got %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("got %v want %v", got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStatsCounted checks that the per-rank counters of a run add up to a
// nonzero total across ranks.
func TestStatsCounted(t *testing.T) {
	stats, err := Run(4, func(c *Comm) error {
		AllGather(c, []float64{1, 2, 3})
		Barrier(c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var total Stats
	for _, s := range stats {
		total.Add(s)
	}
	if total.Collectives == 0 || total.Sends == 0 || total.Elems == 0 {
		t.Fatalf("stats not accumulated: %+v", total)
	}
}

func TestBlockRangeCoversAll(t *testing.T) {
	check := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)
		p := int(pRaw)%16 + 1
		covered := 0
		prevHi := 0
		for k := 0; k < p; k++ {
			lo, hi := BlockRange(n, p, k)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: quickseed.Rand(t, 1)}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRangeBalanced(t *testing.T) {
	// No block may be more than one longer than another.
	for _, n := range []int{0, 1, 5, 16, 17, 100} {
		for _, p := range []int{1, 2, 3, 7, 16} {
			minLen, maxLen := n+1, -1
			for k := 0; k < p; k++ {
				lo, hi := BlockRange(n, p, k)
				minLen = min(minLen, hi-lo)
				maxLen = max(maxLen, hi-lo)
			}
			if maxLen-minLen > 1 {
				t.Fatalf("n=%d p=%d: block lengths differ by %d", n, p, maxLen-minLen)
			}
		}
	}
}

func BenchmarkAllReduceP8(b *testing.B) {
	Run(8, func(c *Comm) error {
		for i := 0; i < b.N; i++ {
			AllReduce(c, c.Rank(), func(a, b int) int { return a + b })
		}
		return nil
	})
}

func BenchmarkBcastP8(b *testing.B) {
	Run(8, func(c *Comm) error {
		for i := 0; i < b.N; i++ {
			Bcast(c, 0, i)
		}
		return nil
	})
}

func TestAbortReleasesBlockedRanks(t *testing.T) {
	// Rank 0 panics while rank 1 is blocked waiting for a message that
	// will never arrive; the world abort must release rank 1 and Run must
	// report rank 0's panic (not the cascade).
	_, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			panic("original failure")
		}
		Recv[int](c, 0) // would block forever without abort
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("got %v", err)
	}
	if re.Rank != 0 || errors.Is(err, ErrAborted) {
		t.Fatalf("want rank 0's original panic, got %v", err)
	}
}

func TestAbortFromErrorReturn(t *testing.T) {
	wantErr := errors.New("worker failed")
	_, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return wantErr
		}
		Recv[int](c, 0)
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want the originating error", err)
	}
}

func TestSplitBasic(t *testing.T) {
	// 7 ranks, 3 colors by modulo: groups {0,3,6}, {1,4}, {2,5}.
	_, err := Run(7, func(c *Comm) error {
		color := c.Rank() % 3
		sub := Split(c, color)
		wantSize := 3 - min(color, 1) // color 0 → 3 members; 1,2 → 2
		if color == 0 && sub.Size() != 3 || color > 0 && sub.Size() != 2 {
			return fmt.Errorf("rank %d color %d: sub size %d (want %d)", c.Rank(), color, sub.Size(), wantSize)
		}
		// Subgroup collectives work and stay inside the group.
		sum := AllReduce(sub, c.Rank(), func(a, b int) int { return a + b })
		want := 0
		for r := 0; r < 7; r++ {
			if r%3 == color {
				want += r
			}
		}
		if sum != want {
			return fmt.Errorf("rank %d: group sum %d want %d", c.Rank(), sum, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitRankOrder(t *testing.T) {
	_, err := Run(6, func(c *Comm) error {
		sub := Split(c, c.Rank()/3) // groups {0,1,2} and {3,4,5}
		if got := sub.Rank(); got != c.Rank()%3 {
			return fmt.Errorf("parent rank %d got sub rank %d", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitSingleColor(t *testing.T) {
	_, err := Run(4, func(c *Comm) error {
		sub := Split(c, 0)
		if sub.Size() != 4 || sub.Rank() != c.Rank() {
			return fmt.Errorf("identity split broken: %d/%d", sub.Rank(), sub.Size())
		}
		Barrier(sub)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitAbortReleasesSubgroups(t *testing.T) {
	// A panic in one subgroup must release ranks blocked in another.
	_, err := Run(4, func(c *Comm) error {
		sub := Split(c, c.Rank()%2)
		if c.Rank() == 0 {
			panic("subgroup failure")
		}
		if c.Rank() == 2 {
			// Blocked on a message from subgroup peer 0 (parent rank 0 is
			// in the other group; here sub peer is parent rank 0? no —
			// group of even ranks is {0,2}: sub rank 1 waits for sub rank 0,
			// which panicked).
			Recv[int](sub, 0)
		}
		return nil
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("got %v, want original panic from rank 0", err)
	}
}

func TestSplitArbitraryColorsProperty(t *testing.T) {
	// Any color assignment must produce consistent subgroups: sizes sum to
	// p, sub-ranks are 0..k-1 in parent order, and subgroup collectives
	// agree with a direct computation.
	check := func(raw [6]uint8) bool {
		p := 6
		colors := make([]int, p)
		for i := range colors {
			colors[i] = int(raw[i]) % 3
		}
		ok := true
		_, err := Run(p, func(c *Comm) error {
			sub := Split(c, colors[c.Rank()])
			wantSize := 0
			wantRank := 0
			for r := 0; r < p; r++ {
				if colors[r] == colors[c.Rank()] {
					if r < c.Rank() {
						wantRank++
					}
					wantSize++
				}
			}
			if sub.Size() != wantSize || sub.Rank() != wantRank {
				ok = false
				return nil
			}
			sum := AllReduce(sub, c.Rank(), func(a, b int) int { return a + b })
			want := 0
			for r := 0; r < p; r++ {
				if colors[r] == colors[c.Rank()] {
					want += r
				}
			}
			if sum != want {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50, Rand: quickseed.Rand(t, 1)}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitCountsIntoRankStats: a rank's traffic inside a subworld is its
// own — the subworld endpoint and the parent endpoint share one Stats, the
// ops continue one sequence, and Run reports the total.
func TestSplitCountsIntoRankStats(t *testing.T) {
	const p = 4
	final := make([]Stats, p)
	stats, err := Run(p, func(c *Comm) error {
		sub := Split(c, c.Rank()%2) // groups {0,2} and {1,3}
		before := c.Stats()
		AllReduce(sub, c.Rank(), func(a, b int) int { return a + b })
		after := c.Stats()
		if after != sub.Stats() {
			return fmt.Errorf("rank %d: parent counts %+v, subworld counts %+v", c.Rank(), after, sub.Stats())
		}
		if got := after.Collectives - before.Collectives; got != 1 {
			return fmt.Errorf("rank %d: the subworld all-reduce added %d collectives, want 1", c.Rank(), got)
		}
		if after.Sends != before.Sends+1 || after.Ops <= before.Ops {
			return fmt.Errorf("rank %d: the subworld all-reduce moved sends %d→%d, ops %d→%d",
				c.Rank(), before.Sends, after.Sends, before.Ops, after.Ops)
		}
		final[c.Rank()] = after
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := range stats {
		if stats[k] != final[k] {
			t.Errorf("Run reported %+v for rank %d, which counted %+v", stats[k], k, final[k])
		}
	}
}

// TestFaultFiresInsideSplit: a Fault addresses the top-level rank's one op
// sequence, so an op the rank makes on a subworld is as reachable as any
// other — here rank 1's first op after the split, which it makes as rank 0
// of the group {1, 3}.
func TestFaultFiresInsideSplit(t *testing.T) {
	const p, victim = 4, 1
	body := func(splitOps *int64) func(*Comm) error {
		return func(c *Comm) error {
			sub := Split(c, c.Rank()%2)
			if c.Rank() == victim && splitOps != nil {
				*splitOps = c.Stats().Ops
			}
			AllReduce(sub, c.Rank(), func(a, b int) int { return a + b })
			return nil
		}
	}
	var splitOps int64
	if _, err := Run(p, body(&splitOps)); err != nil {
		t.Fatal(err)
	}
	f := Fault{Rank: victim, Op: splitOps + 1, Kind: FaultCrash}
	_, err := RunWithFaults(p, []Fault{f}, body(nil))
	var re *RankError
	if !errors.As(err, &re) || re.Rank != victim || !errors.Is(err, ErrInjected) {
		t.Fatalf("%v inside the subworld: got %v, want an injected crash of rank %d", f, err, victim)
	}
	if want := fmt.Sprintf("rank %d killed at op %d", victim, f.Op); !strings.Contains(err.Error(), want) {
		t.Fatalf("crash reads %q, want it to name %q", err, want)
	}
}

// TestSelfCollectives: the one-rank world needs no Run, and every collective
// on it is the general code at size 1 — it returns its input, sends nothing
// and counts its ops like any other world; splitting it gives another
// one-rank world.
func TestSelfCollectives(t *testing.T) {
	c := Self()
	if c.Rank() != 0 || c.Size() != 1 {
		t.Fatalf("Self is rank %d of %d, want 0 of 1", c.Rank(), c.Size())
	}
	sum := func(a, b int) int { return a + b }
	for _, op := range []struct {
		name        string
		run         func() any
		want        any
		collectives int64
	}{
		{"Bcast", func() any { return Bcast(c, 0, 7) }, 7, 1},
		{"AllGather", func() any { return fmt.Sprint(AllGather(c, 7)) }, "[7]", 1},
		{"AllReduce", func() any { return AllReduce(c, 7, sum) }, 7, 1},
		{"Barrier", func() any { Barrier(c); return nil }, nil, 1},
		{"AllGatherv", func() any { return fmt.Sprint(AllGatherv(c, []int{1, 2})) }, "[1 2]", 1},
		{"SendRecv", func() any { Send(c, 0, 7); return Recv[int](c, 0) }, 7, 0},
	} {
		before := c.Stats()
		if got := op.run(); got != op.want {
			t.Errorf("%s on Self returned %v, want %v", op.name, got, op.want)
		}
		after := c.Stats()
		if got := after.Collectives - before.Collectives; got != op.collectives {
			t.Errorf("%s entered %d collectives, want %d", op.name, got, op.collectives)
		}
		if after.Ops <= before.Ops {
			t.Errorf("%s did not advance the op counter", op.name)
		}
		if sent := after.Sends - before.Sends; (sent != 0) != (op.name == "SendRecv") {
			t.Errorf("%s sent %d messages", op.name, sent)
		}
	}
	sub := Split(c, 3)
	if sub.Rank() != 0 || sub.Size() != 1 {
		t.Fatalf("Split of Self is rank %d of %d, want 0 of 1", sub.Rank(), sub.Size())
	}
	if got := AllReduce(sub, 5, sum); got != 5 || sub.Stats().Ops == 0 {
		t.Fatalf("AllReduce on the split world returned %d after %d ops", got, sub.Stats().Ops)
	}
}

// TestCounterNextOnce: over p ranks that all take values as fast as they can,
// a Counter hands out 0…n−1 each exactly once — whichever rank gets which.
func TestCounterNextOnce(t *testing.T) {
	const perRank = 200
	for _, p := range []int{1, 2, 4, 8} {
		var got [][]int
		_, err := Run(p, func(c *Comm) error {
			ct := NewCounter(c)
			mine := make([]int, perRank)
			for i := range mine {
				mine[i] = ct.Next(c)
			}
			if all := AllGather(c, mine); c.Rank() == 0 {
				got = all
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, p*perRank)
		for _, vs := range got {
			for _, v := range vs {
				if v < 0 || v >= len(seen) || seen[v] {
					t.Fatalf("p=%d: value %d handed out twice or out of [0, %d)", p, v, len(seen))
				}
				seen[v] = true
			}
		}
	}
}

// TestCounterNextIsOneSend: Next is one op, counted as one send of one
// element and no collective.
func TestCounterNextIsOneSend(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		ct := NewCounter(c)
		before := c.Stats()
		ct.Next(c)
		d := c.Stats()
		d.Ops -= before.Ops
		d.Sends -= before.Sends
		d.Elems -= before.Elems
		d.Collectives -= before.Collectives
		if d.Ops != 1 || d.Sends != 1 || d.Elems != 1 || d.Collectives != 0 {
			return fmt.Errorf("Next counted %+v, want one op, one send of one element", d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
