// Package quickseed is the random source of the repo's testing/quick
// properties; only tests import it. By default each property draws from
// the fixed seed its call site names, so every run of a commit tests the
// same inputs. When the environment variable PARSIMONE_QUICK_SEED holds an
// integer s, a property whose fixed seed is b draws from s+b instead: `make
// quick-soak` sets it to fresh values to explore inputs tier-1 never
// reaches, and a failing property logs the value, which replays it.
package quickseed

import (
	"math/rand" //parsivet:wallclock — testing/quick's source, imported by tests only; never feeds learned state
	"os"
	"strconv"
	"testing"
)

// Env is the environment variable that shifts every property's seed.
const Env = "PARSIMONE_QUICK_SEED"

// Rand returns the random source of a property whose fixed seed is base.
func Rand(t testing.TB, base int64) *rand.Rand {
	t.Helper()
	v := os.Getenv(Env)
	if v == "" {
		return rand.New(rand.NewSource(base))
	}
	s, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("%s=%q: not an integer", Env, v)
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("testing/quick inputs drawn under %s=%s; rerun with it to replay", Env, v)
		}
	})
	return rand.New(rand.NewSource(s + base))
}
