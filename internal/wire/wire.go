// Package wire defines SIREN's UDP message format: a textual header carrying
// the process identity (the columns of the receiver's database) followed by
// a free-form content payload, with chunking for payloads that exceed a
// datagram.
//
// Per the paper (§3.1 "UDP Message Sender"), each collected data category
// travels as its own message; long categories (module lists, shared-object
// lists) are split into chunks sent separately, and the header fields —
// JOBID, STEPID, PID, HASH, HOST, TIME, LAYER, TYPE — let the receiver's
// post-processing reassemble chunks and distinguish processes, including
// exec()-reused PIDs, via the executable-path hash.
package wire

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"siren/internal/xxhash"
)

// Message types: the data categories siren.so collects.
const (
	TypeMetadata   = "METADATA"    // process ids + executable file metadata
	TypeObjects    = "OBJECTS"     // loaded shared objects, one path per line
	TypeModules    = "MODULES"     // loaded modules, one per line
	TypeCompilers  = "COMPILERS"   // .comment compiler records, one per line
	TypeMaps       = "MAPS"        // /proc/self/maps text
	TypeFileH      = "FILE_H"      // fuzzy hash of the raw executable (or script)
	TypeStringsH   = "STRINGS_H"   // fuzzy hash of printable strings
	TypeSymbolsH   = "SYMBOLS_H"   // fuzzy hash of global symbol names
	TypeObjectsH   = "OBJECTS_H"   // fuzzy hash of the shared-object list
	TypeModulesH   = "MODULES_H"   // fuzzy hash of the module list
	TypeCompilersH = "COMPILERS_H" // fuzzy hash of the compiler list
	TypeMapsH      = "MAPS_H"      // fuzzy hash of the memory map
)

// Layers distinguish the hooked process itself from a Python input script
// whose data is collected by the interpreter's hook.
const (
	LayerSelf   = "SELF"
	LayerScript = "SCRIPT"
)

// MaxDatagram is the default maximum datagram size the chunker targets;
// conservative for typical MTUs so no IP fragmentation occurs.
const MaxDatagram = 1400

const magic = "SIREN1"

// Header identifies the process and data category a message belongs to.
// All fields map 1:1 onto database columns.
type Header struct {
	JobID  string // SLURM_JOB_ID value ("" outside Slurm)
	StepID string // SLURM_STEP_ID value
	PID    int
	Hash   string // 128-bit hash of the executable path, 32 hex chars
	Host   string
	Time   int64  // collection unix time, one-second granularity
	Layer  string // LayerSelf or LayerScript
	Type   string // one of the Type* constants
	Seq    int    // chunk index, 0-based
	Total  int    // chunk count (>= 1)
}

// ProcessKey groups all records of one process instance (all types).
func (h Header) ProcessKey() string {
	return strings.Join([]string{h.JobID, h.StepID, strconv.Itoa(h.PID), h.Hash, h.Host,
		strconv.FormatInt(h.Time, 10)}, "\x1f")
}

// Message is one datagram: header plus content chunk.
type Message struct {
	Header
	Content []byte
}

// Encode renders the message as a datagram. The content is last and raw, so
// it may contain any bytes including the field separator.
func Encode(m Message) []byte {
	var sb strings.Builder
	sb.Grow(128 + len(m.Content))
	sb.WriteString(magic)
	sb.WriteString("|JOBID=")
	sb.WriteString(m.JobID)
	sb.WriteString("|STEPID=")
	sb.WriteString(m.StepID)
	sb.WriteString("|PID=")
	sb.WriteString(strconv.Itoa(m.PID))
	sb.WriteString("|HASH=")
	sb.WriteString(m.Hash)
	sb.WriteString("|HOST=")
	sb.WriteString(m.Host)
	sb.WriteString("|TIME=")
	sb.WriteString(strconv.FormatInt(m.Time, 10))
	sb.WriteString("|LAYER=")
	sb.WriteString(m.Layer)
	sb.WriteString("|TYPE=")
	sb.WriteString(m.Type)
	sb.WriteString("|SEQ=")
	sb.WriteString(strconv.Itoa(m.Seq))
	sb.WriteString("|TOT=")
	sb.WriteString(strconv.Itoa(m.Total))
	sb.WriteString("|CONTENT=")
	sb.WriteString(string(m.Content))
	return []byte(sb.String())
}

// ErrMalformed is returned by Parse for datagrams that do not follow the
// SIREN wire format. The receiver drops such datagrams (graceful failure).
var ErrMalformed = errors.New("wire: malformed datagram")

// PartitionFields extracts the raw JOBID and HOST header values from an
// encoded datagram in one bounded scan, without parsing or allocating: the
// returned slices alias the datagram. The receiver's shard dispatcher uses
// this to hash-partition datagrams by (JobID, Host) before the full Parse
// happens on a writer shard.
//
// The scan walks the fixed field order exactly like Parse and stops at HOST,
// so it never touches the content bytes — a "|HOST=" pattern inside CONTENT
// can never match. It reports ok=false when the magic is wrong or the header
// deviates from the wire layout (such datagrams fail Parse anyway).
func PartitionFields(datagram []byte) (job, host []byte, ok bool) {
	if len(datagram) < len(magic)+1 || string(datagram[:len(magic)+1]) != magic+"|" {
		return nil, nil, false
	}
	rest := datagram[len(magic)+1:]
	for i, prefix := range fieldPrefixes {
		if len(rest) < len(prefix) || string(rest[:len(prefix)]) != prefix {
			return nil, nil, false
		}
		rest = rest[len(prefix):]
		sep := bytes.IndexByte(rest, '|')
		if sep < 0 {
			return nil, nil, false // header values are always '|'-terminated
		}
		switch i {
		case 0:
			job = rest[:sep]
		case 4:
			return job, rest[:sep], true // HOST: done, content never reached
		}
		rest = rest[sep+1:]
	}
	return nil, nil, false
}

// fieldPrefixes are the ten fixed header fields preceding CONTENT, in wire
// order. Precomputed so the parse hot path never concatenates strings.
var fieldPrefixes = [...]string{"JOBID=", "STEPID=", "PID=", "HASH=", "HOST=", "TIME=", "LAYER=", "TYPE=", "SEQ=", "TOT="}

// PartitionHash is the canonical shard-partitioning hash over the JOBID and
// HOST header values. The receiver's dispatcher and sirendb's store shards
// must agree on this function: when the receiver's writer-shard count equals
// the store's shard count, every message a writer handles hashes to the store
// shard with the writer's own index, so batches route shard→shard with no
// re-partitioning and no cross-shard lock contention.
func PartitionHash(job, host []byte) uint64 {
	return xxhash.Sum64Seed(host, xxhash.Sum64(job))
}

// PartitionIndex maps a (JOBID, HOST) pair to one of n receiver partitions —
// the admission rule of a multi-receiver deployment. It reduces the *high*
// 32 bits of PartitionHash, while writer/store shard routing reduces the
// full hash (in practice its low bits) modulo the shard count: taking both
// from the same low bits would leave a partition-k receiver with only hash
// residues ≡ k, concentrating its admitted traffic on gcd(n, shards)-th of
// the writer and store shards. High and low xxhash bits are independent, so
// every receiver's slice still spreads across all its shards.
func PartitionIndex(job, host []byte, n int) int {
	return int((PartitionHash(job, host) >> 32) % uint64(n))
}

// Parse decodes a datagram produced by Encode.
//
// This is the receiver's per-message hot path, so copying is kept minimal:
// the header region is converted to a string exactly once (every string
// field of the Message shares that one small allocation) and the content
// bytes are copied exactly once. A valid datagram's header cannot contain
// '|' inside a value, so the first "|CONTENT=" occurrence is always the real
// content marker — content itself may contain the pattern freely.
func Parse(datagram []byte) (Message, error) {
	const contentMark = "|CONTENT="
	ci := bytes.Index(datagram, []byte(contentMark))
	if ci < 0 {
		if len(datagram) < len(magic)+1 || string(datagram[:len(magic)+1]) != magic+"|" {
			return Message{}, fmt.Errorf("%w: bad magic", ErrMalformed)
		}
		return Message{}, fmt.Errorf("%w: missing CONTENT", ErrMalformed)
	}
	s := string(datagram[:ci])
	if !strings.HasPrefix(s, magic+"|") {
		return Message{}, fmt.Errorf("%w: bad magic", ErrMalformed)
	}
	s = s[len(magic)+1:]
	var m Message
	for i, prefix := range fieldPrefixes {
		name := prefix[:len(prefix)-1]
		if !strings.HasPrefix(s, prefix) {
			return Message{}, fmt.Errorf("%w: expected field %s", ErrMalformed, name)
		}
		s = s[len(prefix):]
		var val string
		if sep := strings.IndexByte(s, '|'); sep >= 0 {
			val, s = s[:sep], s[sep+1:]
		} else if i == len(fieldPrefixes)-1 {
			val, s = s, "" // TOT runs to the content marker
		} else {
			return Message{}, fmt.Errorf("%w: unterminated field %s", ErrMalformed, name)
		}
		var err error
		switch i {
		case 0:
			m.JobID = val
		case 1:
			m.StepID = val
		case 2:
			m.PID, err = strconv.Atoi(val)
		case 3:
			m.Hash = val
		case 4:
			m.Host = val
		case 5:
			m.Time, err = strconv.ParseInt(val, 10, 64)
		case 6:
			m.Layer = val
		case 7:
			m.Type = val
		case 8:
			m.Seq, err = strconv.Atoi(val)
		case 9:
			m.Total, err = strconv.Atoi(val)
		}
		if err != nil {
			return Message{}, fmt.Errorf("%w: field %s: %v", ErrMalformed, name, err)
		}
	}
	if s != "" {
		// Extra bytes between TOT and the content marker: not Encode output.
		return Message{}, fmt.Errorf("%w: trailing header bytes", ErrMalformed)
	}
	m.Content = append([]byte{}, datagram[ci+len(contentMark):]...) // non-nil even when empty, like []byte("")
	if m.Total < 1 || m.Seq < 0 || m.Seq >= m.Total {
		return Message{}, fmt.Errorf("%w: chunk %d/%d out of range", ErrMalformed, m.Seq, m.Total)
	}
	return m, nil
}

// Chunk splits one logical record into datagrams no larger than maxSize.
// Header overhead is measured per chunk; content is sliced to fit. A record
// with empty content still produces one chunk (types like FILE_H always
// announce themselves even when the hash is empty).
func Chunk(h Header, content []byte, maxSize int) []Message {
	if maxSize <= 0 {
		maxSize = MaxDatagram
	}
	// Overhead of a chunk with worst-case SEQ/TOT digits.
	probe := Message{Header: h}
	probe.Seq, probe.Total = 999999, 999999
	overhead := len(Encode(probe))
	room := maxSize - overhead
	if room < 16 {
		room = 16 // pathological header: still make progress
	}
	n := (len(content) + room - 1) / room
	if n == 0 {
		n = 1
	}
	msgs := make([]Message, 0, n)
	for i := 0; i < n; i++ {
		lo := i * room
		hi := lo + room
		if hi > len(content) {
			hi = len(content)
		}
		m := Message{Header: h, Content: content[lo:hi]}
		m.Seq, m.Total = i, n
		msgs = append(msgs, m)
	}
	return msgs
}

// Record is a reassembled logical record.
type Record struct {
	// Header is the first chunk seen, except Total, which is the largest
	// Total announced by any chunk of the group — the chunk count the record
	// was reassembled against.
	Header  Header
	Content []byte
	// Complete is false when chunks were lost in transit or when chunks of
	// the group disagreed on Total (a re-sent record with different content
	// length interleaving with the original); Content then holds the
	// concatenation of the chunks that did arrive, in order.
	Complete bool
}

// recordKey is the grouping key shared by all chunks of one logical record:
// every header field except Seq/Total. Comparable, so it keys a map directly
// with no string joins.
type recordKey struct {
	jobID, stepID string
	pid           int
	hash, host    string
	time          int64
	layer, typ    string
}

// chunk is one arrived chunk of a multi-chunk group.
type chunk struct {
	seq     int
	content []byte
}

// Reassemble groups messages by record key and joins chunk contents. Records
// with missing chunks are returned with Complete=false — SIREN keeps partial
// data rather than discarding it (the fuzzy hashes of list categories remain
// comparable even with gaps, which is why the lists are hashed as well).
// Records come out in the order their first chunk appears in msgs.
//
// Chunks arrive in any order, so the group's chunk count is the maximum
// Total announced across its chunks — not the first-seen header's. Sizing
// the loop from the first chunk silently dropped any chunk with
// Seq >= firstTotal (a reordered re-send with a larger Total) and could mark
// the record Complete with data missing. Groups whose chunks disagree on
// Total mix two versions of the record and are never Complete. A Seq that
// arrives twice keeps its last write.
//
// The common record is a single datagram: its Content is the message's own
// Content slice, not a copy, so callers must not mutate one through the
// other. Multi-chunk records get one freshly allocated Content.
func Reassemble(msgs []Message) []Record {
	var ra Reassembler
	return ra.Reassemble(msgs)
}

// A Reassembler runs Reassemble batch after batch on buffers it reuses —
// the shape of a consolidation worker that reassembles one job at a time.
// The zero value is ready to use. Not safe for concurrent use.
type Reassembler struct {
	out    []Record
	groups []group
}

// group is the reassembly state of one record besides its Record.
type group struct {
	maxTotal int  // largest Total announced by any chunk
	mismatch bool // chunks disagreed on Total: two record versions mixed
	firstSeq int
	chunks   []chunk // every chunk in arrival order; nil while there is only the first
}

// Reassemble is the package-level Reassemble, except that the returned
// slice is the Reassembler's own and is overwritten by the next call.
func (ra *Reassembler) Reassemble(msgs []Message) []Record {
	out, groups := ra.out[:0], ra.groups[:0]
	if cap(out) < len(msgs) {
		out, groups = make([]Record, 0, len(msgs)), make([]group, 0, len(msgs))
	}
	index := make(map[recordKey]int, len(msgs))
	last, lastKey := -1, recordKey{}
	for i := range msgs {
		m := &msgs[i]
		k := recordKey{m.JobID, m.StepID, m.PID, m.Hash, m.Host, m.Time, m.Layer, m.Type}
		gi, ok := last, last >= 0 && k == lastKey // a record's consecutive chunks skip the map
		if !ok {
			gi, ok = index[k]
		}
		last, lastKey = gi, k
		if !ok {
			last = len(out)
			index[k] = last
			out = append(out, Record{Header: m.Header, Content: m.Content})
			groups = append(groups, group{maxTotal: m.Total, firstSeq: m.Seq})
			continue
		}
		g := &groups[gi]
		if m.Total != g.maxTotal {
			g.mismatch = true
			if m.Total > g.maxTotal {
				g.maxTotal = m.Total
			}
		}
		if g.chunks == nil {
			g.chunks = append(g.chunks, chunk{g.firstSeq, out[gi].Content})
		}
		g.chunks = append(g.chunks, chunk{m.Seq, m.Content})
	}
	for gi := range out {
		g, r := &groups[gi], &out[gi]
		r.Header.Total = g.maxTotal
		cs := g.chunks
		if cs == nil {
			r.Complete = g.maxTotal == 1 && g.firstSeq == 0
			continue
		}
		// Walk the chunks that actually arrived, in Seq order, never the
		// announced range: a single datagram with TOT=2000000000 must not
		// cost two billion iterations. After dropping overwritten Seqs the
		// Seqs are distinct ints, so len == maxTotal with min 0 and max
		// maxTotal-1 pigeonholes to exactly the full range [0, maxTotal).
		if !slices.IsSortedFunc(cs, cmpSeq) {
			slices.SortStableFunc(cs, cmpSeq)
		}
		n, size := 0, 0
		for i, c := range cs {
			if i+1 < len(cs) && cs[i+1].seq == c.seq {
				continue // overwritten by a later arrival of the same Seq
			}
			cs[n] = c
			n++
			size += len(c.content)
		}
		cs = cs[:n]
		r.Complete = !g.mismatch && n == g.maxTotal && cs[0].seq == 0 && cs[n-1].seq == g.maxTotal-1
		content := make([]byte, 0, size)
		for _, c := range cs {
			content = append(content, c.content...)
		}
		r.Content = content
	}
	ra.out, ra.groups = out, groups
	return out
}

func cmpSeq(a, b chunk) int { return cmp.Compare(a.seq, b.seq) }
