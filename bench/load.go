//go:build linux

package main

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"github.com/tdmatch/tdmatch"
)

// querySeq is a seeded sequence of query IDs with their pre-encoded
// /v1/topk bodies; a client walks it cyclically, so the order is fixed
// by the seed however fast the daemon answers.
type querySeq struct {
	ids    []string
	bodies [][]byte
}

// seqLen is the length of one generated sequence: longer than any
// window's request count per client is not needed, the walk wraps.
const seqLen = 1 << 15

// newSeq draws n IDs with pick and encodes their request bodies.
func newSeq(n int, pick func() string) querySeq {
	q := querySeq{ids: make([]string, n), bodies: make([][]byte, n)}
	for i := range q.ids {
		q.ids[i] = pick()
		q.bodies[i] = topkBody(q.ids[i])
	}
	return q
}

// uniformSeq draws n IDs uniformly from universe.
func uniformSeq(rng *rand.Rand, universe []string, n int) querySeq {
	return newSeq(n, func() string { return universe[rng.Intn(len(universe))] })
}

// zipfSeq draws n IDs from universe with Zipf(1.1) popularity by
// position.
func zipfSeq(rng *rand.Rand, universe []string, n int) querySeq {
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(universe)-1))
	return newSeq(n, func() string { return universe[z.Uint64()] })
}

// closedLoop runs one closed-loop client per sequence against /v1/topk
// until ctx ends: each, on a connection of its own (see wire), sends its
// next request only when the previous one has completed. Sample offsets are measured from origin. observe,
// when non-nil, is called around every request (the traced run's span
// hook).
func closedLoop(ctx context.Context, d *daemon, seqs []querySeq, origin time.Time, observe func(client, i int, start, end time.Time)) *samples {
	outs := make([]*samples, len(seqs))
	var wg sync.WaitGroup
	for c := range seqs {
		outs[c] = &samples{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seq, out := seqs[c], outs[c]
			var client *wire
			for i := 0; ctx.Err() == nil; i++ {
				if client == nil { // at the start, and after a broken connection
					var err error
					if client, err = dial(d, "/v1/topk"); err != nil {
						out.addMiss(time.Since(origin), false)
						return
					}
				}
				start := time.Now()
				err := client.post(seq.bodies[i%len(seq.bodies)])
				end := time.Now()
				record(out, start.Sub(origin), end.Sub(start), err)
				if observe != nil {
					observe(c, i, start, end)
				}
				if err != nil && !errors.Is(err, errShed) {
					client.close()
					client = nil
				}
			}
			if client != nil {
				client.close()
			}
		}(c)
	}
	wg.Wait()
	all := &samples{}
	for _, o := range outs {
		all.merge(o)
	}
	return all
}

// record files one request's outcome into a sample set.
func record(s *samples, at, lat time.Duration, err error) {
	switch {
	case err == nil:
		s.add(at, lat)
	case errors.Is(err, errShed):
		s.addMiss(at, true)
	default:
		s.addMiss(at, false)
	}
}

// ingestLog is what one open-loop ingest phase measured.
type ingestLog struct {
	// lat times each ingest from when it was due, so a stall charges
	// the requests queued behind it; late is how far behind its
	// schedule the generator actually sent each one.
	lat  *samples
	late []time.Duration
	// acked lists the IDs the daemon acknowledged with a 200.
	acked []string
}

// openLoop sends docs to /v1/ingest on a fixed schedule of rate per
// second, one document per request, from a single connection:
// document i is due at start + i/rate whatever happened to the ones
// before it. It returns when the documents run out.
func openLoop(d *daemon, client *http.Client, docs []tdmatch.IngestDoc, rate float64, origin time.Time) ingestLog {
	log := ingestLog{lat: &samples{}}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i, doc := range docs {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		err := post(client, d.base+"/v1/ingest", ingestBody(doc), nil)
		record(log.lat, due.Sub(origin), time.Since(due), err)
		log.late = append(log.late, sent.Sub(due))
		if err == nil {
			log.acked = append(log.acked, doc.ID)
		}
	}
	return log
}
