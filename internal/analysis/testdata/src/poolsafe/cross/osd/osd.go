// Package osd is the caller side of the cross-package poolsafe fixture:
// every release and retention below happens inside the imported pool
// package, so the analyzer can see it only through the driver's
// interprocedural summaries (DESIGN.md §14).
package osd

import (
	"repro/internal/analysis/testdata/src/poolsafe/cross/list"
	"repro/internal/analysis/testdata/src/poolsafe/cross/pool"
)

func useAfterCrossRelease(pl *pool.Pool) {
	e := pl.Get()
	e.N = 7
	pl.HandBack(e)
	e.N = 8 // want `use of e.N after it was released to its pool`
}

func retainThenCrossRelease(pl *pool.Pool) {
	e := pl.Get()
	pl.Stash(e) // want `pooled object e is stored here but released to its pool`
	pl.HandBack(e)
}

// handBackVia is a same-package wrapper whose name avoids the heuristic;
// the release still propagates through its summary.
func handBackVia(pl *pool.Pool, e *pool.Entry) {
	pl.HandBack(e)
}

func useAfterWrappedRelease(pl *pool.Pool) {
	e := pl.Get()
	handBackVia(pl, e)
	_ = e.N // want `use of e.N after it was released to its pool`
}

func peekIsHarmless(pl *pool.Pool) int {
	e := pl.Get()
	n := pl.Peek(e)
	pl.HandBack(e)
	return n
}

func freshLifetime(pl *pool.Pool) {
	e := pl.Get()
	pl.HandBack(e)
	e = pl.Get()
	e.N = 9
	pl.HandBack(e)
}

// holder keeps a pooled record past the call that filled it.
type holder struct{ last *pool.Entry }

func useAfterGenericPut(l *list.List[pool.Entry]) {
	e := l.Get()
	e.N = 7
	l.Put(e)
	e.N = 8 // want `use of e.N after it was released to its pool`
}

func retainThenGenericPut(l *list.List[pool.Entry], h *holder) {
	e := l.Get()
	h.last = e // want `pooled object e is stored here but released to its pool`
	l.Put(e)
}
