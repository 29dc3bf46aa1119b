package quickseed

import "testing"

// TestRandSeed: unset, the source is the fixed seed's; set, it is shifted
// by the variable's value.
func TestRandSeed(t *testing.T) {
	t.Setenv(Env, "")
	if a, b := Rand(t, 1).Int63(), Rand(t, 1).Int63(); a != b {
		t.Fatalf("fixed seed drew %d then %d", a, b)
	}
	fixed := Rand(t, 8).Int63()
	t.Setenv(Env, "5")
	if got, want := Rand(t, 3).Int63(), fixed; got != want {
		t.Fatalf("seed 5+3 drew %d, fixed seed 8 %d", got, want)
	}
}
