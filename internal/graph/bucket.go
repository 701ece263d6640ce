package graph

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"github.com/tdmatch/tdmatch/internal/textproc"
)

// Bucketer merges numeric data nodes with equal-width binning, using the
// Freedman–Diaconis rule to compute the bucket width (paper §II-C). All
// numeric terms falling in the same bucket map to one canonical label, so
// "1234" and "1250" can bridge a claim and a tuple that report close values.
type Bucketer struct {
	width float64
	min   float64
}

// NewBucketer computes bucket boundaries from the numeric values observed
// in the corpora. It returns nil when fewer than two distinct numeric
// values exist or the Freedman–Diaconis width degenerates to zero (all mass
// in one point), in which cases bucketing would be a no-op.
func NewBucketer(values []float64) *Bucketer {
	if len(values) < 2 {
		return nil
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	iqr := quantile(sorted, 0.75) - quantile(sorted, 0.25)
	// Freedman–Diaconis: h = 2 * IQR * n^(-1/3).
	h := 2 * iqr / math.Cbrt(float64(len(sorted)))
	if h <= 0 {
		return nil
	}
	return &Bucketer{width: h, min: sorted[0]}
}

// NewBucketerWidth builds a bucketer with an explicit width, as used by the
// CoronaCheck merging ablation where "equal-width buckets of size 7" gave
// the best results (§V-F2).
func NewBucketerWidth(min, width float64) *Bucketer {
	if width <= 0 {
		return nil
	}
	return &Bucketer{width: width, min: min}
}

// quantile returns the linear-interpolated q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Canonical maps a numeric term to its bucket label, e.g. "num#12". Terms
// that do not parse as numbers are returned unchanged.
func (b *Bucketer) Canonical(term string) string {
	if b == nil || !textproc.IsNumeric(term) {
		return term
	}
	v, err := strconv.ParseFloat(term, 64)
	if err != nil {
		return term
	}
	idx := int(math.Floor((v - b.min) / b.width))
	return fmt.Sprintf("num#%d", idx)
}

// Merge implements Merger: every numeric term is mapped to its bucket.
func (b *Bucketer) Merge(terms []string) map[string]string {
	if b == nil {
		return nil
	}
	out := make(map[string]string)
	for _, t := range terms {
		if c := b.Canonical(t); c != t {
			out[t] = c
		}
	}
	return out
}

// CollectNumeric extracts the float values of all numeric single-token
// terms, to feed NewBucketer.
func CollectNumeric(terms []string) []float64 {
	var out []float64
	for _, t := range terms {
		if !textproc.IsNumeric(t) {
			continue
		}
		if v, err := strconv.ParseFloat(t, 64); err == nil {
			out = append(out, v)
		}
	}
	return out
}
