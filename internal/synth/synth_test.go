package synth

import (
	"math"
	"testing"
)

func TestGenerateShape(t *testing.T) {
	d, truth, err := Generate(Config{N: 100, M: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.N != 100 || d.M != 50 {
		t.Fatalf("shape %dx%d", d.N, d.M)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(truth.ModuleOf) != 100 || len(truth.CondGroup) != 50 {
		t.Fatal("truth shapes wrong")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _, _ := Generate(Config{N: 50, M: 30, Seed: 7})
	b, _, _ := Generate(Config{N: 50, M: 30, Seed: 7})
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("same seed diverged at cell %d", i)
		}
	}
	c, _, _ := Generate(Config{N: 50, M: 30, Seed: 8})
	same := 0
	for i := range a.Values {
		if a.Values[i] == c.Values[i] {
			same++
		}
	}
	if same > len(a.Values)/10 {
		t.Fatalf("different seeds produced %d/%d identical cells", same, len(a.Values))
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Config{
		{N: 2, M: 50},
		{N: 50, M: 2},
		{N: 10, M: 10, Regulators: 8, Modules: 8},
		{N: 50, M: 50, Noise: -1},
	}
	for i, cfg := range bad {
		cfg.Seed = 1
		if _, _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestAllModulesPopulated(t *testing.T) {
	_, truth, err := Generate(Config{N: 200, M: 40, Modules: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	count := make([]int, truth.NumModules)
	for _, m := range truth.ModuleOf {
		if m >= 0 {
			count[m]++
		}
	}
	for mod, c := range count {
		if c == 0 {
			t.Fatalf("module %d has no members", mod)
		}
	}
}

func TestAllCondGroupsPopulated(t *testing.T) {
	_, truth, err := Generate(Config{N: 50, M: 30, CondGroups: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	count := make([]int, truth.NumGroups)
	for _, gr := range truth.CondGroup {
		count[gr]++
	}
	for gr, c := range count {
		if c == 0 {
			t.Fatalf("condition group %d empty", gr)
		}
	}
}

func TestRegulatorsHaveNoModule(t *testing.T) {
	d, truth, err := Generate(Config{N: 60, M: 20, Regulators: 5, Modules: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if truth.ModuleOf[i] != -1 {
			t.Fatalf("regulator %d assigned module %d", i, truth.ModuleOf[i])
		}
		if d.Names[i][0] != 'R' {
			t.Fatalf("regulator %d named %q", i, d.Names[i])
		}
	}
	for i := 5; i < 60; i++ {
		if truth.ModuleOf[i] < 0 || truth.ModuleOf[i] >= 4 {
			t.Fatalf("member %d module %d out of range", i, truth.ModuleOf[i])
		}
	}
}

func TestRegulatorIndicesValid(t *testing.T) {
	_, truth, err := Generate(Config{N: 120, M: 30, Regulators: 8, Modules: 5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for mod, regs := range truth.Regulators {
		if len(regs) == 0 || len(regs) > 3 {
			t.Fatalf("module %d has %d regulators", mod, len(regs))
		}
		seen := map[int]bool{}
		for _, r := range regs {
			if r < 0 || r >= 8 {
				t.Fatalf("module %d regulator %d out of range", mod, r)
			}
			if seen[r] {
				t.Fatalf("module %d repeats regulator %d", mod, r)
			}
			seen[r] = true
		}
	}
}

// TestModuleCoherence checks the generative signal: genes in the same module
// must correlate far more strongly than genes in different modules, which is
// what makes the clustering task solvable.
func TestModuleCoherence(t *testing.T) {
	d, truth, err := Generate(Config{N: 80, M: 100, Regulators: 6, Modules: 4, Noise: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	corr := func(a, b []float64) float64 {
		var sa, sb, saa, sbb, sab float64
		for i := range a {
			sa += a[i]
			sb += b[i]
			saa += a[i] * a[i]
			sbb += b[i] * b[i]
			sab += a[i] * b[i]
		}
		n := float64(len(a))
		cov := sab/n - sa/n*sb/n
		va := saa/n - sa/n*sa/n
		vb := sbb/n - sb/n*sb/n
		return cov / math.Sqrt(va*vb)
	}
	var within, across float64
	var nw, na int
	for i := 6; i < d.N; i++ {
		for j := i + 1; j < d.N; j++ {
			c := corr(d.Row(i), d.Row(j))
			if truth.ModuleOf[i] == truth.ModuleOf[j] {
				within += math.Abs(c)
				nw++
			} else {
				across += math.Abs(c)
				na++
			}
		}
	}
	within /= float64(nw)
	across /= float64(na)
	if within < across+0.2 {
		t.Fatalf("within-module |corr| %v not clearly above across-module %v", within, across)
	}
}

// TestRegulatorSeparatesModule checks the split signal: for some module, its
// true regulator's sign must partition observations into groups with clearly
// different module means.
func TestRegulatorSeparatesModule(t *testing.T) {
	d, truth, err := Generate(Config{N: 60, M: 120, Regulators: 4, Modules: 3, Noise: 0.3, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for mod := 0; mod < truth.NumModules && !found; mod++ {
		reg := truth.Regulators[mod][0]
		var hi, lo []float64
		for j := 0; j < d.M; j++ {
			var mean float64
			cnt := 0
			for i := 0; i < d.N; i++ {
				if truth.ModuleOf[i] == mod {
					mean += d.At(i, j)
					cnt++
				}
			}
			mean /= float64(cnt)
			if d.At(reg, j) > 0 {
				hi = append(hi, mean)
			} else {
				lo = append(lo, mean)
			}
		}
		if len(hi) == 0 || len(lo) == 0 {
			continue
		}
		avg := func(xs []float64) float64 {
			var s float64
			for _, x := range xs {
				s += x
			}
			return s / float64(len(xs))
		}
		if math.Abs(avg(hi)-avg(lo)) > 0.5 {
			found = true
		}
	}
	if !found {
		t.Fatal("no module separated by its first true regulator")
	}
}

func TestDefaultDerivation(t *testing.T) {
	cfg := Config{N: 350, M: 100}.withDefaults()
	if cfg.Modules != 10 {
		t.Fatalf("modules = %d, want 10", cfg.Modules)
	}
	if cfg.Regulators != 17 {
		t.Fatalf("regulators = %d, want 17", cfg.Regulators)
	}
	if cfg.CondGroups != 10 {
		t.Fatalf("cond groups = %d, want 10", cfg.CondGroups)
	}
	if cfg.Noise != 0.4 {
		t.Fatalf("noise = %v", cfg.Noise)
	}
}

// TestGenerateManyModulesFewPatterns: when modules vastly outnumber the
// distinguishable sign patterns, generation must still terminate (the
// signature-retry budget is finite) and produce a valid data set.
func TestGenerateManyModulesFewPatterns(t *testing.T) {
	d, truth, err := Generate(Config{
		N: 120, M: 20, Modules: 20, Regulators: 4, CondGroups: 2, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if truth.NumModules != 20 {
		t.Fatalf("modules = %d", truth.NumModules)
	}
}
