package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result: named columns, rows grouped by
// section (dataset variant or K value), one row per method.
type Table struct {
	// ID is the experiment identifier ("table1", "fig6", ...).
	ID string
	// Title restates the paper artefact being reproduced.
	Title string
	// Header names the value columns.
	Header []string
	// Rows in display order.
	Rows []Row
}

// Row is one method's numbers within a section.
type Row struct {
	Section string
	Method  string
	Values  []float64
}

// Add appends a row.
func (t *Table) Add(section, method string, values ...float64) {
	t.Rows = append(t.Rows, Row{Section: section, Method: method, Values: values})
}

// Fprint renders the table with aligned columns, section separators and
// three-decimal values.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
		if widths[i] < 7 {
			widths[i] = 7
		}
	}
	methodW, sectionW := len("method"), len("section")
	for _, r := range t.Rows {
		if len(r.Method) > methodW {
			methodW = len(r.Method)
		}
		if len(r.Section) > sectionW {
			sectionW = len(r.Section)
		}
	}
	fmt.Fprintf(w, "%-*s  %-*s", sectionW, "section", methodW, "method")
	for i, h := range t.Header {
		fmt.Fprintf(w, "  %*s", widths[i], h)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", sectionW+methodW+4+sum(widths)+2*len(widths)))
	prev := ""
	for _, r := range t.Rows {
		section := r.Section
		if section == prev {
			section = ""
		} else if prev != "" {
			fmt.Fprintln(w)
		}
		prev = r.Section
		fmt.Fprintf(w, "%-*s  %-*s", sectionW, section, methodW, r.Method)
		for i, v := range r.Values {
			width := 7
			if i < len(widths) {
				width = widths[i]
			}
			// Counts (node/edge numbers) print as integers, scores with
			// three decimals.
			if v == float64(int64(v)) && (v >= 100 || v <= -100) {
				fmt.Fprintf(w, "  %*d", width, int64(v))
			} else {
				fmt.Fprintf(w, "  %*.3f", width, v)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
