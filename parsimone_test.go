package parsimone

import (
	"bytes"
	"path/filepath"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	data, truth, err := GenerateSynthetic(SynthConfig{N: 24, M: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if truth.NumModules < 1 {
		t.Fatal("no ground-truth modules")
	}
	opt := DefaultOptions()
	opt.Seed = 7
	opt.Module.Splits.MaxSteps = 16
	out, err := Learn(data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Network.Modules) == 0 {
		t.Fatal("no modules learned")
	}
	par, err := LearnParallel(3, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(out.Network, par.Network) {
		t.Fatal("public API parallel/sequential mismatch")
	}
}

func TestPublicAPISerializationRoundTrip(t *testing.T) {
	data, _, err := GenerateSynthetic(SynthConfig{N: 20, M: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Module.Splits.MaxSteps = 8
	out, err := Learn(data, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.Network.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty XML")
	}
}

func TestPublicAPITSV(t *testing.T) {
	data := NewData(3, 4)
	data.Set(1, 2, 5.5)
	path := filepath.Join(t.TempDir(), "x.tsv")
	if err := data.SaveTSV(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(1, 2) != 5.5 {
		t.Fatal("TSV round trip failed")
	}
}

// TestLearnGenomicaRefusesLikeLearn: a variable whose standard deviation
// overflows float64 is refused by LearnGenomica with Learn's own message,
// instead of being learned as a constant.
func TestLearnGenomicaRefusesLikeLearn(t *testing.T) {
	data, _, err := GenerateSynthetic(SynthConfig{N: 12, M: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < data.M; j++ {
		data.Values[2*data.M+j] = 1e200 * float64(j+1)
	}
	_, learnErr := Learn(data, DefaultOptions())
	_, genErr := LearnGenomica(data, GenomicaParams{Modules: 2, MaxIters: 2}, 1)
	if learnErr == nil || genErr == nil || genErr.Error() != learnErr.Error() {
		t.Fatalf("LearnGenomica = %v, want Learn's refusal %v", genErr, learnErr)
	}
}
