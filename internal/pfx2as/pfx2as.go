// Package pfx2as implements a prefix-to-AS mapping equivalent to CAIDA's
// RouteViews Prefix-to-AS dataset. CLASP uses it to resolve traceroute hops
// to AS numbers and bdrmap uses it to assign ownership of router interfaces.
//
// The table is a binary (per-bit) trie keyed by the prefix bits, answering
// longest-prefix-match queries. It is built in memory from the generated
// topology; no dataset file is read or written.
package pfx2as

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// ASN is an autonomous system number.
type ASN uint32

// String implements fmt.Stringer ("AS15169").
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// Origin is the origin AS set announced for one prefix. Almost always a
// single AS; multi-origin announcements (MOAS) carry more.
type Origin []ASN

// Primary returns the first (preferred) AS of the set, or 0 if empty.
func (o Origin) Primary() ASN {
	if len(o) == 0 {
		return 0
	}
	return o[0]
}

// String renders the origin in RouteViews notation (underscore-joined).
func (o Origin) String() string {
	parts := make([]string, len(o))
	for i, a := range o {
		parts[i] = strconv.FormatUint(uint64(a), 10)
	}
	return strings.Join(parts, "_")
}

type trieNode struct {
	child  [2]*trieNode
	origin Origin // non-nil when a prefix terminates here
	set    bool
}

// Table is a longest-prefix-match table from IP prefixes to origin AS sets.
// The zero value is not usable; call New.
type Table struct {
	v4, v6 *trieNode
}

// New returns an empty table.
func New() *Table {
	return &Table{v4: &trieNode{}, v6: &trieNode{}}
}

// Insert adds or replaces the origin for a prefix. The table is built from
// the generated topology, so the prefix is valid and the origin not empty.
func (t *Table) Insert(p netip.Prefix, origin Origin) {
	p = p.Masked()
	root := t.v4
	if p.Addr().Is6() && !p.Addr().Is4In6() {
		root = t.v6
	}
	n := root
	addr := p.Addr().AsSlice()
	for i := 0; i < p.Bits(); i++ {
		b := bitAt(addr, i)
		if n.child[b] == nil {
			n.child[b] = &trieNode{}
		}
		n = n.child[b]
	}
	o := make(Origin, len(origin))
	copy(o, origin)
	n.origin = o
	n.set = true
}

// LookupASN returns the primary origin AS of the longest prefix covering
// addr, or 0 when none does.
func (t *Table) LookupASN(addr netip.Addr) ASN {
	if !addr.IsValid() {
		return 0
	}
	root := t.v4
	maxBits := 32
	if addr.Is6() && !addr.Is4In6() {
		root = t.v6
		maxBits = 128
	}
	if addr.Is4In6() {
		addr = addr.Unmap()
	}
	slice := addr.AsSlice()
	n := root
	var origin Origin
	for i := 0; i <= maxBits; i++ {
		if n.set {
			origin = n.origin
		}
		if i == maxBits {
			break
		}
		b := bitAt(slice, i)
		if n.child[b] == nil {
			break
		}
		n = n.child[b]
	}
	return origin.Primary()
}

func bitAt(b []byte, i int) int {
	return int(b[i/8]>>(7-uint(i%8))) & 1
}
