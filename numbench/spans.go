package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"

	"numfabric/internal/obs"
)

// span is one recorded interval at a layer boundary, in obs.Now
// nanoseconds. parent is the index of the span that caused it, or -1.
type span struct {
	name       string
	parent     int32
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// spanLog keeps a traced run's spans in memory; write dumps them once
// the run is over.
type spanLog struct {
	spans []span
}

// begin opens a span and returns its index for end. A nil log records
// nothing.
func (l *spanLog) begin(name string, parent int32) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, parent: parent, start: obs.Now()})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(i int32) {
	if l != nil {
		l.spans[i].end = obs.Now()
	}
}

// adopt appends spans recorded elsewhere (the allocator views' solve
// logs), each parented to the span whose interval contains its start
// among the given candidates, which must be sorted by start and not
// overlap.
func (l *spanLog) adopt(name string, recs []solveRec, parents []int32) {
	for _, r := range recs {
		j := sort.Search(len(parents), func(j int) bool { return l.spans[parents[j]].start > r.start }) - 1
		p := int32(-1)
		if j >= 0 && r.start <= l.spans[parents[j]].end {
			p = parents[j]
		}
		l.spans = append(l.spans, span{name: name, parent: p, start: r.start, end: r.end})
	}
}

// total is the summed duration of every span with the given name.
func (l *spanLog) total(name string) int64 {
	var t int64
	for _, s := range l.spans {
		if s.name == name {
			t += s.dur()
		}
	}
	return t
}

// selfTime is the summed self time of the spans with the given name:
// each span's duration minus the part of its interval that its child
// spans cover (overlapping children, such as concurrent worker solves,
// are counted once).
func (l *spanLog) selfTime(name string) int64 {
	children := map[int32][]span{}
	for _, s := range l.spans {
		if s.parent >= 0 && l.spans[s.parent].name == name {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var t int64
	for i, s := range l.spans {
		if s.name != name {
			continue
		}
		t += s.dur() - covered(children[int32(i)])
	}
	return t
}

// covered is the length of the union of the spans' intervals.
func covered(kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
	var total int64
	lo, hi := kids[0].start, kids[0].end
	for _, k := range kids[1:] {
		if k.start > hi {
			total += hi - lo
			lo, hi = k.start, k.end
		} else if k.end > hi {
			hi = k.end
		}
	}
	return total + hi - lo
}

// write dumps the spans as CSV (id, parent, name, start_ns, end_ns).
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	for i, s := range l.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
