// Package pages is the copy-on-write paged array that every run record is
// kept in. A record is never written once published, so the next run's
// record shares each page of it that the edit left as it was and copies
// only the pages it changes. The page size is decided here, once, for
// every record.
package pages

import "slices"

// Bits sets the page size: a page holds 1<<Bits entries.
const Bits = 6

// Len is the number of entries a page holds.
const Len = 1 << Bits

// Array is an array kept in pages of Len entries: entry i is
// a[i>>Bits][i%Len]. The last page may be only partly used. Arrays share
// pages, so a page is never written once a published array holds it.
type Array[T any] []*[Len]T

// At returns entry i.
func (a Array[T]) At(i int) *T { return &a[i>>Bits][i&(Len-1)] }

// NumPages returns the number of pages n entries take.
func NumPages(n int) int { return (n + Len - 1) >> Bits }

// Writer builds an array from a published one, src: it shares src's pages
// until Set or Mut copies one, and never writes src.
type Writer[T any] struct {
	a, src Array[T]
}

// NewWriter returns a writer of an array that starts as src.
func NewWriter[T any](src Array[T]) Writer[T] {
	return Writer[T]{a: slices.Clone(src), src: src}
}

// Derive returns a writer of an array of n entries derived from src. Page p
// is src's when src has it and keeps reports true for the page's index
// range [lo, hi); every other page is new, with entry i set to at(i). keeps
// may be nil when src is.
func Derive[T any](src Array[T], n int, keeps func(lo, hi int) bool, at func(i int) T) Writer[T] {
	a := make(Array[T], NumPages(n))
	fresh := 0
	for p := range a {
		if lo := p << Bits; p < len(src) && keeps(lo, min(lo+Len, n)) {
			a[p] = src[p]
		} else {
			fresh++
		}
	}
	slab := make([][Len]T, fresh)
	for p := range a {
		if a[p] != nil {
			continue
		}
		a[p], slab = &slab[0], slab[1:]
		for i := p << Bits; i < min((p+1)<<Bits, n); i++ {
			a[p][i&(Len-1)] = at(i)
		}
	}
	return Writer[T]{a: a, src: src}
}

// Equal returns vals in pages, sharing each page of src whose entries equal
// vals' at the same positions.
func Equal[T comparable](src Array[T], vals []T) Array[T] {
	keeps := func(lo, hi int) bool { return slices.Equal(src[lo>>Bits][:hi-lo], vals[lo:hi]) }
	w := Derive(src, len(vals), keeps, func(i int) T { return vals[i] })
	return w.Array()
}

// At returns entry i, read-only.
func (w *Writer[T]) At(i int) *T { return w.a.At(i) }

// Mut returns entry i for writing: it first copies the page holding it
// while that page is src's, or adds zero pages up to it.
func (w *Writer[T]) Mut(i int) *T {
	p := i >> Bits
	for len(w.a) <= p {
		w.a = append(w.a, new([Len]T))
	}
	if p < len(w.src) && w.a[p] == w.src[p] {
		cp := *w.a[p]
		w.a[p] = &cp
	}
	return w.a.At(i)
}

// Set makes v entry i (see Mut).
func (w *Writer[T]) Set(i int, v T) { *w.Mut(i) = v }

// Array returns the array written so far. Once it is published, the writer
// must not write again.
func (w *Writer[T]) Array() Array[T] { return w.a }
