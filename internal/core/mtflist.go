package core

// mtfList is an intrusive doubly-linked list with move-to-front semantics
// and a URL index, the data structure behind directory-based volumes
// (§3.2.1): "An approximate way to rank volume elements in order of
// popularity is using move-to-front semantics to place a requested resource
// at the head of its FIFO; this ensures that piggyback messages include the
// most recently accessed elements in the volume. The server can control the
// size of volumes by removing unpopular entries from the tail."
//
// All operations are O(1) except iteration.
type mtfList struct {
	head, tail *mtfNode
	index      map[string]*mtfNode
}

type mtfNode struct {
	prev, next *mtfNode

	elem        Element
	contentType string
	// accessCount is the number of requests observed for this resource,
	// used to apply the proxy's access filter (§3.2.2).
	accessCount int
	// lastAccess is the time of the most recent request, the popularity
	// metric for adding, removing, updating, and filtering (§3.2.1).
	lastAccess int64
	// seg caches the element's pre-serialized piggyback wire segment,
	// invalidated whenever the element's attributes change. Rendering
	// happens once per volume update instead of once per response.
	seg string
}

// segment returns the node's wire segment, rendering it on first use after
// an attribute change.
func (n *mtfNode) segment() string {
	if n.seg == "" {
		n.seg = elementSegment(n.elem)
	}
	return n.seg
}

// setElem refreshes the stored element, invalidating the cached segment
// only when the attributes actually changed (the common re-access of an
// unmodified resource keeps the rendered bytes).
func (n *mtfNode) setElem(e Element) {
	if n.elem != e {
		n.elem = e
		n.seg = ""
	}
}

func newMTFList() *mtfList {
	return &mtfList{index: make(map[string]*mtfNode)}
}

// Len returns the number of elements in the list.
func (l *mtfList) Len() int { return len(l.index) }

// Touch records an access to e at time now, inserting the element if absent
// and moving it to the front. The element's attributes (size, Last-Modified)
// are refreshed from e. It returns the node.
func (l *mtfList) Touch(e Element, contentType string, now int64) *mtfNode {
	n, ok := l.index[e.URL]
	if !ok {
		n = &mtfNode{elem: e, contentType: contentType}
		l.index[e.URL] = n
		l.pushFront(n)
	} else {
		n.setElem(e)
		n.contentType = contentType
		l.moveToFront(n)
	}
	n.accessCount++
	n.lastAccess = now
	return n
}

// Update refreshes the stored attributes of e without counting an access or
// reordering — used when the server modifies a resource (new Last-Modified)
// rather than serving it.
func (l *mtfList) Update(e Element) bool {
	n, ok := l.index[e.URL]
	if !ok {
		return false
	}
	n.setElem(e)
	return true
}

// Remove deletes the element with the given URL.
func (l *mtfList) Remove(url string) bool {
	n, ok := l.index[url]
	if !ok {
		return false
	}
	l.unlink(n)
	delete(l.index, url)
	return true
}

// Get returns the node for url, if present.
func (l *mtfList) Get(url string) (*mtfNode, bool) {
	n, ok := l.index[url]
	return n, ok
}

// Walk calls fn on each node front-to-back until fn returns false.
func (l *mtfList) Walk(fn func(*mtfNode) bool) {
	for n := l.head; n != nil; n = n.next {
		if !fn(n) {
			return
		}
	}
}

func (l *mtfList) pushFront(n *mtfNode) {
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *mtfList) moveToFront(n *mtfNode) {
	if l.head == n {
		return
	}
	l.unlink(n)
	l.pushFront(n)
}

func (l *mtfList) unlink(n *mtfNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
