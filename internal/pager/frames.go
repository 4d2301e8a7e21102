package pager

import "cellnpdp/internal/semiring"

// frameState is where a frame is in its life cycle.
type frameState uint8

const (
	frameResident frameState = iota // holds its block's verified cells
	frameLoading                    // the block's one loader is reading it; callers wait on cond
	frameSpilling                   // its final block is being written; callers that would pin it wait on cond
)

// frameOf is one block's frame.
type frameOf[E semiring.Elem] struct {
	cells      []E // tile² cells
	id         int
	state      frameState
	pins       int
	prev, next *frameOf[E] // frameList links
}

// frameList is an intrusive doubly linked list of frames, least
// recently acquired at the head: a page-in appends its frame and an
// Acquire moves its frame to the tail, so the list is in last-use order
// and eviction's victim is the first evictable frame from the head.
type frameList[E semiring.Elem] struct{ head, tail *frameOf[E] }

func (l *frameList[E]) pushBack(fr *frameOf[E]) {
	fr.prev, fr.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = fr
	} else {
		l.head = fr
	}
	l.tail = fr
}

func (l *frameList[E]) remove(fr *frameOf[E]) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		l.head = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		l.tail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}

func (l *frameList[E]) moveToBack(fr *frameOf[E]) {
	if l.tail != fr {
		l.remove(fr)
		l.pushBack(fr)
	}
}
