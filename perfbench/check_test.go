package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cloversim"
	"cloversim/internal/sweepcli"
)

// smallCampaign runs a four-cell campaign through the CLI path.
func smallCampaign(t *testing.T) outputs {
	t.Helper()
	out := t.TempDir()
	var so, se bytes.Buffer
	args := []string{"-q", "-out", out, "-machines", "icx", "-workloads", "stream,jacobi", "-modes", "baseline,nt"}
	if code := sweepcli.MainWithRunnerContext(context.Background(), args, &so, &se, cloversim.RunScenarioContext); code != sweepcli.ExitOK {
		t.Fatalf("campaign exited %d: %s", code, se.String())
	}
	o, err := readOutputs(out)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func flipped(b []byte, at []byte) []byte {
	i := bytes.Index(b, at)
	if i < 0 {
		panic("marker not found")
	}
	out := append([]byte(nil), b...)
	out[i+len(at)] ^= 1
	return out
}

func TestCheckerReportsFlippedByte(t *testing.T) {
	ref := smallCampaign(t)
	c := &checker{cells: 4}
	if failed := c.check(ref); failed != 0 || len(c.problems) != 0 {
		t.Fatalf("reference: %d failed cells, problems %v", failed, c.problems)
	}
	if failed := c.check(smallCampaign(t)); failed != 0 {
		t.Fatalf("identical rerun: %d failed cells, problems %v", failed, c.problems)
	}

	// One flipped byte in a metric value of the first cell's CSV row.
	bad := ref
	bad.csv = flipped(ref.csv, []byte(",ok,"))
	if failed := c.check(bad); failed != 1 {
		t.Errorf("flipped CSV byte: %d failed cells, want 1", failed)
	}
	// One flipped byte in a JSON metric value.
	bad = ref
	bad.json = flipped(ref.json, []byte(`"value": `))
	if failed := c.check(bad); failed != 1 {
		t.Errorf("flipped JSON byte: %d failed cells, want 1", failed)
	}
	if len(c.problems) != 2 {
		t.Errorf("problems %q, want the two mismatches", c.problems)
	}
}

func TestCheckerDigests(t *testing.T) {
	ref := smallCampaign(t)
	sum := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	good := &checker{cells: 4, digests: map[string]string{"campaign.csv": sum(ref.csv), "campaign.json": sum(ref.json)}}
	if failed := good.check(ref); failed != 0 {
		t.Fatalf("matching digests: %d failed cells, problems %v", failed, good.problems)
	}
	bad := &checker{cells: 4, digests: map[string]string{"campaign.csv": sum(ref.csv), "campaign.json": sum(flipped(ref.json, []byte(`"value": `)))}}
	if failed := bad.check(ref); failed != 4 || len(bad.problems) != 1 {
		t.Errorf("digest mismatch: %d failed cells, problems %q; want all 4 cells and one problem", failed, bad.problems)
	}
}

func TestCommittedDigestsCoverEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		if _, err := digestsFor(w.digests); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}
