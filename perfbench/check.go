package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// outputs are the two files a campaign writes.
type outputs struct {
	csv, json []byte
}

func readOutputs(dir string) (outputs, error) {
	c, err := os.ReadFile(filepath.Join(dir, "campaign.csv"))
	if err != nil {
		return outputs{}, err
	}
	j, err := os.ReadFile(filepath.Join(dir, "campaign.json"))
	if err != nil {
		return outputs{}, err
	}
	return outputs{csv: c, json: j}, nil
}

// digestFile holds the SHA-256 digests of each grid's campaign.csv and
// campaign.json at defaultSeed, in sha256sum format with paths
// <grid>/<file>. Regenerate with cmd/sweep and the flags of
// workloadDef.cliArgs.
//
//go:embed digests.sha256
var digestFile string

// digestsFor returns the committed digests of one grid, keyed by file
// name.
func digestsFor(grid string) (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(digestFile))
	for sc.Scan() {
		sum, path, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			continue
		}
		if g, file, ok := strings.Cut(path, "/"); ok && g == grid {
			out[file] = sum
		}
	}
	if len(out) != 2 {
		return nil, fmt.Errorf("digests.sha256 has %d digests for grid %q, want 2", len(out), grid)
	}
	return out, nil
}

// checker is the output-correctness gate of one run. Every operation's
// outputs must equal the reference outputs cell by cell, and the
// reference must match the committed digests when they apply. Each
// cell that is not ok or differs counts as failed.
type checker struct {
	cells   int
	digests map[string]string // nil: the seed has no committed digests
	ref     *outputs
	refRows [][]byte
	refJSON []json.RawMessage
	// problems records the first few reasons cells failed.
	problems []string
}

func (c *checker) problem(format string, args ...any) {
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// setReference installs the outputs every later check compares with,
// checking them against the committed digests first. It returns the
// number of failed cells in the reference itself.
func (c *checker) setReference(o outputs) int {
	c.ref = &o
	c.refRows, _ = csvRows(o.csv)
	c.refJSON, _ = jsonCells(o.json)
	failed := 0
	if c.digests != nil {
		for file, data := range map[string][]byte{"campaign.csv": o.csv, "campaign.json": o.json} {
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != c.digests[file] {
				c.problem("%s digest %s, committed %s", file, got, c.digests[file])
				failed = c.cells
			}
		}
	}
	return max(failed, c.compare(o))
}

// check compares one operation's outputs with the reference (the first
// outputs checked become the reference) and returns its failed cells.
func (c *checker) check(o outputs) int {
	if c.ref == nil {
		return c.setReference(o)
	}
	return c.compare(o)
}

// compare counts the cells of o that are not ok or whose CSV row or
// JSON result differs from the reference.
func (c *checker) compare(o outputs) int {
	rows, err := csvRows(o.csv)
	if err != nil || len(rows) != c.cells || len(c.refRows) != c.cells {
		c.problem("campaign.csv has %d cells (%v), want %d", len(rows), err, c.cells)
		return c.cells
	}
	cells, err := jsonCells(o.json)
	if err != nil || len(cells) != c.cells || len(c.refJSON) != c.cells {
		c.problem("campaign.json has %d cells (%v), want %d", len(cells), err, c.cells)
		return c.cells
	}
	failed := 0
	for i := range rows {
		switch {
		case !rowOK(rows[i]):
			c.problem("cell %d not ok: %s", i, rows[i])
		case !bytes.Equal(rows[i], c.refRows[i]):
			c.problem("cell %d CSV row differs from the reference", i)
		case !bytes.Equal(cells[i], c.refJSON[i]):
			c.problem("cell %d JSON result differs from the reference", i)
		default:
			continue
		}
		failed++
	}
	return failed
}

// csvRows splits campaign.csv into its data rows, checking the header
// has the status column rowOK reads.
func csvRows(data []byte) ([][]byte, error) {
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) == 0 || !bytes.HasPrefix(lines[0], []byte(csvHeaderPrefix)) {
		return nil, fmt.Errorf("campaign.csv header does not start with %q", csvHeaderPrefix)
	}
	return lines[1:], nil
}

// csvHeaderPrefix fixes the column order rowOK relies on.
const csvHeaderPrefix = "id,machine,workload,mode,ranks,mesh,threads,status,"

// rowOK reports whether a campaign.csv row's status column is ok.
func rowOK(row []byte) bool {
	fields := bytes.SplitN(row, []byte(","), 9)
	return len(fields) == 9 && string(fields[7]) == "ok"
}

// jsonCells returns campaign.json's per-cell results as raw bytes.
func jsonCells(data []byte) ([]json.RawMessage, error) {
	var c struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, err
	}
	return c.Results, nil
}
