package main

import "time"

// ledger records spans around calls into the program's layers. A
// span's parent is the span it is attributed to, which need not
// enclose it in time: a replayed child call (the GF MAC of one read)
// runs right after its parent (the engine read) and is charged
// against it. A span's self time is its duration minus its children's.
//
// delay, when set, spins inside the named span before it ends. Only
// the ledger's own tests set it, to show that time spent in one layer
// lands on that layer's row and nowhere else.
type ledger struct {
	base  time.Time
	spans []span
	delay map[string]time.Duration
}

type span struct {
	name       string
	parent     int // -1 for roots
	start, end int64
}

func newLedger() *ledger { return &ledger{base: time.Now()} }

func (l *ledger) now() int64 { return int64(time.Since(l.base)) }

// begin opens a span and returns its id.
func (l *ledger) begin(name string, parent int) int {
	l.spans = append(l.spans, span{name: name, parent: parent, start: l.now()})
	return len(l.spans) - 1
}

func (l *ledger) end(id int) {
	if d := l.delay[l.spans[id].name]; d > 0 {
		t := time.Now()
		for time.Since(t) < d {
		}
	}
	l.spans[id].end = l.now()
}

// around runs fn inside a span.
func (l *ledger) around(name string, parent int, fn func()) {
	id := l.begin(name, parent)
	fn()
	l.end(id)
}

// row is one layer's aggregate over every span of that name.
type row struct {
	calls   int
	totalNs int64
	selfNs  int64
}

func (r row) meanUs() float64 { return float64(r.totalNs) / float64(r.calls) / 1e3 }
func (r row) selfUs() float64 { return float64(r.selfNs) / float64(r.calls) / 1e3 }

// rows folds the spans of one or more ledgers into per-name rows.
func rows(ls ...*ledger) map[string]row {
	out := map[string]row{}
	for _, l := range ls {
		child := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range l.spans {
			r := out[s.name]
			d := s.end - s.start
			r.calls++
			r.totalNs += d
			r.selfNs += d - child[i]
			out[s.name] = r
		}
	}
	return out
}
