// Package csvout writes the experiment results as CSV files (the
// artifact's gather_likwid_* scripts produce the same shape) and renders
// aligned text tables for terminal output.
package csvout

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Table is an in-memory result table.
type Table struct {
	Header []string
	Rows   [][]string
}

// New creates a table with the given column names.
func New(header ...string) *Table {
	return &Table{Header: header}
}

// Add appends a row; values are formatted with %v, floats with %.4f.
func (t *Table) Add(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", x)
		case float32:
			row[i] = fmt.Sprintf("%.4f", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteCSV writes the table to w in CSV format.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the table to path, creating parent directories.
func (t *Table) SaveCSV(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

// Format renders an aligned text table.
func (t *Table) Format() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}
