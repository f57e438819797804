// Package program holds loaded program images: code, initialized data,
// and the paged data memory a running context reads and writes.  Each
// program occupies its own address space; when several programs share a
// simulated machine, the memory system tags addresses with an address
// space identifier so the physically-shared caches keep them distinct.
package program

import (
	"fmt"
	"slices"

	"recyclesim/internal/isa"
)

// Default address-space layout.  Code starts at CodeBase; the data
// segment and stack live far above it so effective addresses never
// collide with instruction PCs.
const (
	CodeBase  uint64 = 0x1000
	DataBase  uint64 = 0x10_0000
	StackBase uint64 = 0x80_0000 // stacks grow down from here
)

// Program is an assembled, relocated program image.
//
// A built program is never written afterwards: the core, the golden
// emulator and sampled mode each copy Data into a Memory of their own
// (NewMemory), so one Program may be shared by any number of
// concurrent runs.
type Program struct {
	Name   string
	Code   []isa.Inst        // Code[i] is the instruction at CodeBase + i*InstBytes
	Entry  uint64            // entry PC
	Data   []uint64          // initial data memory: Data[i] is the word at DataBase + 8*i
	Labels map[string]uint64 // symbol table (code labels and data symbols)
}

// PCToIndex converts a PC into a code slice index; ok is false when the
// PC is outside the program text.
func (p *Program) PCToIndex(pc uint64) (int, bool) {
	if pc < CodeBase || (pc-CodeBase)%isa.InstBytes != 0 {
		return 0, false
	}
	idx := int((pc - CodeBase) / isa.InstBytes)
	if idx >= len(p.Code) {
		return 0, false
	}
	return idx, true
}

// outsideText is what fetching outside the text segment reads.
var outsideText = isa.Inst{Op: isa.OpHalt}

// FetchInst returns the instruction at pc, in place in the code (or a
// shared halt for a PC outside the text segment, so wrong-path
// execution stays well-defined); callers only read through it.  A
// pointer, not a copy: copying the record out of a returned value
// stores its narrow fields one by one and reloads them with one wide
// load, which stalls.
func (p *Program) FetchInst(pc uint64) *isa.Inst {
	if idx, ok := p.PCToIndex(pc); ok {
		return &p.Code[idx]
	}
	return &outsideText
}

// EndPC returns the PC one instruction past the last code word.
func (p *Program) EndPC() uint64 {
	return CodeBase + uint64(len(p.Code))*isa.InstBytes
}

// Validate checks structural invariants: branch targets inside the text
// segment and aligned, entry in range.  Workload construction calls it.
// A nil program is an error, not a panic.
func (p *Program) Validate() error {
	if p == nil {
		return fmt.Errorf("program: nil program")
	}
	if _, ok := p.PCToIndex(p.Entry); !ok {
		return fmt.Errorf("program %s: entry 0x%x outside text", p.Name, p.Entry)
	}
	for idx, in := range p.Code {
		if in.IsBranch() && !in.IsIndirect() {
			if _, ok := p.PCToIndex(in.Target); !ok {
				return fmt.Errorf("program %s: inst %d (%v) targets 0x%x outside text",
					p.Name, idx, in, in.Target)
			}
		}
	}
	return nil
}

// Memory is a paged 64-bit-word data memory.  Addresses are byte
// addresses; accesses are 8-byte, 8-byte-aligned words (the workloads
// and assembler only generate aligned traffic; unaligned addresses are
// truncated to alignment, which keeps wrong-path garbage harmless).
//
// Words live in 4 KB pages, allocated on the first write to each; a
// read of a page never written returns zero and allocates nothing.
// CopyFrom and Delta cost one page copy or compare per page, and
// the built-in workloads' data images span one to ten pages.  Read and
// Write remember the last page they touched, so a Memory is not safe
// for concurrent use, not even by readers only; CopyFrom and Delta only
// read their argument's pages, so any number of them may share one
// source that nothing writes.
//
// The zero Memory is empty and ready to use.
type Memory struct {
	pages map[uint64]*page // by page number, addr >> pageShift
	order []uint64         // the keys of pages, ascending
	spare []*page          // pages CopyFrom and Load retired, reused before allocating

	lastNum uint64 // page number of last; meaningful only when last != nil
	last    *page
}

const (
	pageShift = 12                   // 4 KB pages
	pageWords = 1 << (pageShift - 3) // 512 words
)

type page [pageWords]uint64

// zeroPage stands in for a page a memory has never written; it is
// never modified.
var zeroPage page

// NewMemory creates a memory initialized from the program's data
// image: Load on an empty memory.
func NewMemory(p *Program) *Memory {
	m := &Memory{}
	m.Load(p)
	return m
}

// Load makes m exactly what NewMemory(p) builds, reusing m's pages: it
// moves every page m holds to the spare list, then copies in the
// data image one page-sized copy at a time.  Every page the image
// touches is filled, even one whose words are all zero.
func (m *Memory) Load(p *Program) {
	for _, pn := range m.order {
		m.spare = append(m.spare, m.pages[pn])
	}
	clear(m.pages)
	m.order = m.order[:0]
	m.last = nil
	for i := 0; i < len(p.Data); {
		addr := DataBase + 8*uint64(i)
		i += copy(m.pageFor(addr >> pageShift)[addr>>3&(pageWords-1):], p.Data[i:])
	}
}

// Read returns the word at addr (zero if never written).
func (m *Memory) Read(addr uint64) uint64 {
	pn := addr >> pageShift
	if m.last == nil || m.lastNum != pn {
		pg := m.pages[pn]
		if pg == nil {
			return 0
		}
		m.last, m.lastNum = pg, pn
	}
	return m.last[addr>>3&(pageWords-1)]
}

// Write stores the word at addr.
func (m *Memory) Write(addr, val uint64) {
	pn := addr >> pageShift
	if m.last == nil || m.lastNum != pn {
		m.last, m.lastNum = m.pageFor(pn), pn
	}
	m.last[addr>>3&(pageWords-1)] = val
}

// pageFor returns page pn, adding a zeroed page on first use.
func (m *Memory) pageFor(pn uint64) *page {
	pg := m.pages[pn]
	if pg == nil {
		pg = m.newPage()
		*pg = page{}
		if m.pages == nil {
			m.pages = make(map[uint64]*page)
		}
		m.pages[pn] = pg
		i, _ := slices.BinarySearch(m.order, pn)
		m.order = slices.Insert(m.order, i, pn)
	}
	return pg
}

// newPage takes a spare page, or allocates one; a spare keeps its old
// contents.
func (m *Memory) newPage() *page {
	if n := len(m.spare); n > 0 {
		pg := m.spare[n-1]
		m.spare = m.spare[:n-1]
		return pg
	}
	return new(page)
}

// CopyFrom makes m an exact copy of src, reusing m's pages: a page
// number both hold is copied in place, one only src holds takes a spare
// page if m has one, and one only m holds moves to the spare list.  A
// copy between memories holding the same page numbers allocates
// nothing.  src is only read.
func (m *Memory) CopyFrom(src *Memory) {
	if m.pages == nil {
		m.pages = make(map[uint64]*page, len(src.order))
	}
	for _, pn := range m.order {
		if src.pages[pn] == nil {
			m.spare = append(m.spare, m.pages[pn])
			delete(m.pages, pn)
		}
	}
	for _, pn := range src.order {
		pg := m.pages[pn]
		if pg == nil {
			pg = m.newPage()
			m.pages[pn] = pg
		}
		*pg = *src.pages[pn]
	}
	m.order = append(m.order[:0], src.order...)
	m.last = nil
}

// Word is one addressed memory word; checkpoint deltas are slices of
// Words sorted by address.
type Word struct {
	Addr uint64
	Val  uint64
}

// Delta appends to out the words of m whose values differ from base,
// sorted by address, and returns the extended slice; passing a reused
// buffer's out[:0] keeps the capture allocation-free.  m must derive
// from base by writes only (writes never remove a page, so m holds
// every page base holds); the words applied to a copy of base with
// Apply reproduce m exactly.  Pages are compared whole first, so an
// unchanged page costs one block compare.
func (m *Memory) Delta(base *Memory, out []Word) []Word {
	for _, pn := range m.order {
		pg, bp := m.pages[pn], base.pages[pn]
		if bp == nil {
			bp = &zeroPage
		}
		if *pg == *bp {
			continue
		}
		for i, v := range pg {
			if v != bp[i] {
				out = append(out, Word{Addr: pn<<pageShift | uint64(i)<<3, Val: v})
			}
		}
	}
	return out
}

// Apply writes the delta words into m.
func (m *Memory) Apply(delta []Word) {
	for _, w := range delta {
		m.Write(w.Addr, w.Val)
	}
}
