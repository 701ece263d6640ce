package embed

import "fmt"

// Sequences is the packed training-corpus format of the §IV-A hot path:
// every token sequence concatenated into one contiguous Tokens slice,
// delimited by Offsets (sequence i is Tokens[Offsets[i]:Offsets[i+1]],
// so len(Offsets) == number of sequences + 1). Training iterates packed
// sequences as one sequential sweep over memory, with no per-sentence
// slice headers to chase; walk generation produces this format directly
// (walk.GeneratePacked) and TrainPacked consumes it natively. The zero
// value is an empty corpus.
type Sequences struct {
	Tokens  []int32
	Offsets []int32
}

// PackSequences converts slice-of-slice token sequences into the packed
// format — the adapter for callers that still materialize [][]int32
// (baselines, tests, second-order walks).
func PackSequences(seqs [][]int32) Sequences {
	total := 0
	for _, s := range seqs {
		total += len(s)
	}
	if int64(total) > int64(1)<<31-1 {
		// Offsets are int32; fail loudly instead of silently wrapping.
		panic(fmt.Sprintf("embed: %d tokens overflow the packed int32 offset index", total))
	}
	p := Sequences{
		Tokens:  make([]int32, 0, total),
		Offsets: make([]int32, 1, len(seqs)+1),
	}
	for _, s := range seqs {
		p.Tokens = append(p.Tokens, s...)
		p.Offsets = append(p.Offsets, int32(len(p.Tokens)))
	}
	return p
}

// Len returns the number of sequences.
func (s Sequences) Len() int {
	if len(s.Offsets) == 0 {
		return 0
	}
	return len(s.Offsets) - 1
}

// Seq returns sequence i as a view into the packed token stream. Callers
// must not mutate it.
func (s Sequences) Seq(i int) []int32 {
	return s.Tokens[s.Offsets[i]:s.Offsets[i+1]]
}

// NumTokens returns the total token count across all sequences.
func (s Sequences) NumTokens() int { return len(s.Tokens) }
