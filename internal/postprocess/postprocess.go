// Package postprocess consolidates raw UDP messages from the database into
// one record per process — the paper's post-processing stage: chunk merging,
// type assembly, and folding Python-script rows into their parent
// interpreter rows — and derives the fields later analyses consume (e.g.
// imported Python packages recovered from interpreter memory maps).
package postprocess

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"siren/internal/procfs"
	"siren/internal/pyenv"
	"siren/internal/sirendb"
	"siren/internal/wire"
)

// ScriptRecord is the Python-input-script information merged into its
// interpreter's process record.
type ScriptRecord struct {
	Path  string
	FileH string
	Size  int64
	Mtime int64
	Inode uint64
}

// ProcessRecord is the consolidated view of one process instance.
type ProcessRecord struct {
	// Identity (UDP header columns).
	JobID   string
	StepID  string
	PID     int
	ExeHash string // executable-path hash that disambiguates exec() reuse
	Host    string
	Time    int64

	// METADATA fields.
	Exe      string
	Category string
	PPID     int
	UID      uint32
	GID      uint32
	Inode    uint64
	Size     int64
	Mode     uint32
	OwnerUID uint32
	OwnerGID uint32
	Atime    int64
	Mtime    int64
	Ctime    int64

	// List categories.
	Objects   []string
	Modules   []string
	Compilers []string
	Maps      []procfs.Region

	// Fuzzy hashes.
	FileH      string
	StringsH   string
	SymbolsH   string
	ObjectsH   string
	ModulesH   string
	CompilersH string
	MapsH      string

	// Python.
	Imports []string      // packages recovered from the memory map
	Script  *ScriptRecord // merged input-script row

	// MissingFields lists message types that arrived incomplete (chunk
	// loss); analyses treat those fields as partially trustworthy.
	MissingFields []string
}

// ExeName returns the basename of the executable path.
func (p *ProcessRecord) ExeName() string {
	if i := strings.LastIndexByte(p.Exe, '/'); i >= 0 {
		return p.Exe[i+1:]
	}
	return p.Exe
}

// Stats summarises a consolidation pass.
type Stats struct {
	Messages             int
	Records              int // reassembled logical records
	Processes            int
	ProcessesWithMissing int
	Jobs                 int
	JobsWithMissing      int
}

// AddJob folds one consolidated job into the summary — the single
// accumulation rule shared by the streaming pass and incremental consumers
// (the serving catalog) splicing carried jobs across refreshes, so both
// report identical Stats for identical records. messages is the job's
// stored wire messages, logical its reassembled record count.
func (s *Stats) AddJob(records []*ProcessRecord, messages, logical int) {
	s.Jobs++
	s.Messages += messages
	s.Records += logical
	jobMissing := false
	for _, r := range records {
		s.Processes++
		if len(r.MissingFields) > 0 {
			s.ProcessesWithMissing++
			jobMissing = true
		}
	}
	if jobMissing {
		s.JobsWithMissing++
	}
}

// Consolidate snapshots db and produces one ProcessRecord per process
// instance, sorted by SortRecords for determinism.
//
// Internally this rides the streaming, shard-parallel read path
// (ConsolidateSnapshot): the store is never materialised as one
// []wire.Message, and peak memory is bounded by the jobs in flight — one
// per store shard — plus the output records, instead of the whole store.
func Consolidate(db *sirendb.DB) ([]*ProcessRecord, Stats) {
	return ConsolidateSnapshot(db.Snapshot(), StreamOptions{})
}

// ConsolidateMessages is consolidation over an explicit message slice — the
// compatibility entry point for callers that already hold messages in
// memory, and the load-everything baseline BenchmarkConsolidate compares
// the streaming path against.
func ConsolidateMessages(msgs []wire.Message) ([]*ProcessRecord, Stats) {
	stats := Stats{Messages: len(msgs)}
	out, nRecords := consolidateChunk(msgs)
	stats.Records = nRecords
	SortRecords(out)
	countRecordStats(&stats, out)
	return out, stats
}

// consolidateChunk consolidates one self-contained message subset into
// process records. "Self-contained" means every chunk and record of every
// process mentioned is inside msgs — true for the whole store, and equally
// true for any (job, host)-closed subset, because the grouping key below
// never crosses a job or a host. That closure is what lets the streaming
// path consolidate per (shard, job) segment and still produce exactly the
// records a whole-store pass would.
//
// Constructor and destructor messages of the same process carry different
// TIME values (data is collected at start-up *and* before termination), so
// records are grouped by the identity columns without TIME — JOBID, STEPID,
// PID, HASH, HOST — and sorted by time within each group. A *repeated*
// message type inside a group signals genuine PID reuse (a later process
// with the same PID and executable path) and starts a new process instance;
// exec()-style reuse within one second is already separated by the
// executable-path HASH column, per the paper.
//
// Records are returned in identity-group first-appearance order, with the
// derived Python imports already extracted.
//
// consolidateChunk runs a one-off kernel; workers that consolidate job
// after job keep their own (see kernel).
func consolidateChunk(msgs []wire.Message) (out []*ProcessRecord, nRecords int) {
	var k kernel
	return k.consolidate(msgs)
}

// kernel is consolidateChunk with reusable scratch: the reassembly buffers
// and the grouping slices, grown to the largest job seen and reused for
// every later one. This is the code every catalog refresh and restart runs
// once per stored row, so it allocates per job rather than per row wherever
// it can: the grouping keys are comparable structs (no string joins), the
// groups are windows of one index slice, the seen-types set is one slice
// reused across processes, and each record's content is copied exactly
// once, into the string its fields are cut from. Not safe for concurrent
// use.
type kernel struct {
	ra                       wire.Reassembler
	group, sizes, pos, order []int32
	seen                     []layerType // (Layer, Type) pairs of the process being built
}

func (k *kernel) consolidate(msgs []wire.Message) (out []*ProcessRecord, nRecords int) {
	records := k.ra.Reassemble(msgs)
	nRecords = len(records)

	// Number the identity groups in first-appearance order, then lay the
	// record indexes out group by group (a counting sort, stable within a
	// group), so every group is a window of one shared slice.
	group := resize(k.group, len(records))
	index := make(map[identityKey]int32)
	sizes := k.sizes[:0]
	last, lastKey := int32(-1), identityKey{}
	for i := range records {
		h := &records[i].Header
		key := identityKey{h.JobID, h.StepID, h.PID, h.Hash, h.Host}
		if last < 0 || key != lastKey {
			g, ok := index[key]
			if !ok {
				g = int32(len(sizes))
				index[key] = g
				sizes = append(sizes, 0)
			}
			last, lastKey = g, key
		}
		group[i] = last
		sizes[last]++
	}
	// pos[g] starts at group g's end; filling backwards walks it down to the
	// group's start.
	pos, order := resize(k.pos, len(sizes)), resize(k.order, len(records))
	end := int32(0)
	for g, n := range sizes {
		end += n
		pos[g] = end
	}
	for i := len(group) - 1; i >= 0; i-- {
		g := group[i]
		pos[g]--
		order[pos[g]] = int32(i)
	}
	byTime := func(a, b int32) int { return cmp.Compare(records[a].Header.Time, records[b].Header.Time) }

	seen := k.seen[:0]
	for g, n := range sizes {
		recs := order[pos[g] : pos[g]+n]
		if !slices.IsSortedFunc(recs, byTime) {
			slices.SortStableFunc(recs, byTime)
		}
		var p *ProcessRecord
		for _, ri := range recs {
			rec := &records[ri]
			h := &rec.Header
			lt := layerType{h.Layer, h.Type}
			if p == nil || slices.ContainsFunc(seen, lt.sameTag) {
				p = &ProcessRecord{
					JobID: h.JobID, StepID: h.StepID, PID: h.PID,
					ExeHash: h.Hash, Host: h.Host, Time: h.Time,
				}
				out = append(out, p)
				seen = seen[:0]
			}
			seen = append(seen, lt)
			if !rec.Complete {
				p.MissingFields = append(p.MissingFields, h.Layer+":"+h.Type)
			}
			content := string(rec.Content)
			if h.Layer == wire.LayerScript {
				applyScript(p, h.Type, content)
				continue
			}
			applySelf(p, h.Type, content)
		}
	}
	k.group, k.sizes, k.pos, k.order, k.seen = group, sizes, pos, order, seen

	// Derived: Python imports from interpreter memory maps.
	for _, p := range out {
		if p.Category == "python" && len(p.Maps) > 0 {
			p.Imports = pyenv.ExtractImports(p.Maps)
		}
	}
	return out, nRecords
}

// identityKey is a process's identity columns without TIME — the grouping
// key of consolidateChunk.
type identityKey struct {
	jobID, stepID string
	pid           int
	hash, host    string
}

// resize returns s with length n, reusing its backing array when it is big
// enough; the contents are unspecified.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// layerType is one (Layer, Type) pair; a repeat within one identity group
// starts a new process instance.
type layerType struct{ layer, typ string }

// sameTag reports whether two pairs render the same "Layer:Type" tag (the
// form MissingFields records), which differs from pair equality only when a
// value contains ':'. The concatenations are short and do not escape, so
// they build on the stack.
func (a layerType) sameTag(b layerType) bool {
	if a.layer == b.layer {
		return a.typ == b.typ
	}
	return len(a.layer)+len(a.typ) == len(b.layer)+len(b.typ) &&
		a.layer+":"+a.typ == b.layer+":"+b.typ
}

// SortRecords orders records by CompareRecords — the deterministic output
// order of every consolidation entry point. Exported so incremental
// consumers (the serving catalog) that splice per-job record sets across
// refresh passes can restore exactly the order a fresh whole-store
// consolidation would produce. The sort is stable: records that tie on the
// whole key are one job's PID reuse within a second, and they keep their
// consolidation order whichever records surround them.
func SortRecords(out []*ProcessRecord) {
	slices.SortStableFunc(out, CompareRecords)
}

// CompareRecords orders records by (Time, JobID, PID, ExeHash, StepID,
// Host): the sort key of SortRecords, and the merge order of a consumer
// merging already-sorted record sets.
func CompareRecords(a, b *ProcessRecord) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	if c := strings.Compare(a.JobID, b.JobID); c != 0 {
		return c
	}
	if c := cmp.Compare(a.PID, b.PID); c != 0 {
		return c
	}
	if c := strings.Compare(a.ExeHash, b.ExeHash); c != 0 {
		return c
	}
	if c := strings.Compare(a.StepID, b.StepID); c != 0 {
		return c
	}
	return strings.Compare(a.Host, b.Host)
}

// countRecordStats fills the process- and job-level counters from the final
// record set.
func countRecordStats(stats *Stats, out []*ProcessRecord) {
	jobs := make(map[string]bool)
	jobsMissing := make(map[string]bool)
	for _, p := range out {
		stats.Processes++
		jobs[p.JobID] = true
		if len(p.MissingFields) > 0 {
			stats.ProcessesWithMissing++
			jobsMissing[p.JobID] = true
		}
	}
	stats.Jobs = len(jobs)
	stats.JobsWithMissing = len(jobsMissing)
}

func applySelf(p *ProcessRecord, typ, content string) {
	switch typ {
	case wire.TypeMetadata:
		md := decodeMetadata(content)
		p.Exe = md.exe
		p.Category = md.category
		p.PPID = md.ppid
		p.UID = uint32(md.uid)
		p.GID = uint32(md.gid)
		p.Inode = uint64(md.inode)
		p.Size = int64(md.size)
		p.Mode = uint32(md.mode)
		p.OwnerUID = uint32(md.ownerUID)
		p.OwnerGID = uint32(md.ownerGID)
		p.Atime = int64(md.atime)
		p.Mtime = int64(md.mtime)
		p.Ctime = int64(md.ctime)
	case wire.TypeObjects:
		p.Objects = splitLines(content)
	case wire.TypeModules:
		p.Modules = splitLines(content)
	case wire.TypeCompilers:
		p.Compilers = splitLines(content)
	case wire.TypeMaps:
		if regions, err := procfs.ParseMaps(content); err == nil {
			p.Maps = regions
		}
	case wire.TypeFileH:
		p.FileH = content
	case wire.TypeStringsH:
		p.StringsH = content
	case wire.TypeSymbolsH:
		p.SymbolsH = content
	case wire.TypeObjectsH:
		p.ObjectsH = content
	case wire.TypeModulesH:
		p.ModulesH = content
	case wire.TypeCompilersH:
		p.CompilersH = content
	case wire.TypeMapsH:
		p.MapsH = content
	}
}

func applyScript(p *ProcessRecord, typ, content string) {
	if p.Script == nil {
		p.Script = &ScriptRecord{}
	}
	switch typ {
	case wire.TypeMetadata:
		md := decodeMetadata(content)
		p.Script.Path = md.exe
		p.Script.Size = int64(md.size)
		p.Script.Mtime = int64(md.mtime)
		p.Script.Inode = uint64(md.inode)
	case wire.TypeFileH:
		p.Script.FileH = content
	}
}

// metadata is a decoded METADATA payload. Numeric fields hold what atoi
// (octal for MODE) makes of the value; an absent key decodes as zero.
type metadata struct {
	exe, category string

	ppid, uid, gid, inode, size, ownerUID, ownerGID, atime, mtime, ctime int
	mode                                                                 uint64
}

// decodeMetadata reads METADATA's KEY=value lines in one pass, straight
// into the fields: the last of a repeated key wins, and lines without '='
// (or with an empty key) and unknown keys are ignored. The string fields
// are substrings of content.
func decodeMetadata(content string) metadata {
	var md metadata
	for rest := content; ; {
		line := rest
		nl := strings.IndexByte(rest, '\n')
		if nl >= 0 {
			line, rest = rest[:nl], rest[nl+1:]
		}
		if i := strings.IndexByte(line, '='); i > 0 {
			v := line[i+1:]
			switch line[:i] {
			case "EXE":
				md.exe = v
			case "CATEGORY":
				md.category = v
			case "PPID":
				md.ppid = atoi(v)
			case "UID":
				md.uid = atoi(v)
			case "GID":
				md.gid = atoi(v)
			case "INODE":
				md.inode = atoi(v)
			case "SIZE":
				md.size = atoi(v)
			case "MODE":
				md.mode = atoiBase(v, 8)
			case "OWNER_UID":
				md.ownerUID = atoi(v)
			case "OWNER_GID":
				md.ownerGID = atoi(v)
			case "ATIME":
				md.atime = atoi(v)
			case "MTIME":
				md.mtime = atoi(v)
			case "CTIME":
				md.ctime = atoi(v)
			}
		}
		if nl < 0 {
			return md
		}
	}
}

// splitLines returns content's non-empty lines (nil when there are none),
// each a substring of content, in one allocation sized by a newline count.
func splitLines(content string) []string {
	n := strings.Count(content, "\n") + 1
	var out []string
	for rest := content; rest != ""; {
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if line == "" {
			continue
		}
		if out == nil {
			out = make([]string, 0, n)
		}
		out = append(out, line)
	}
	return out
}

func atoi(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

func atoiBase(s string, base int) uint64 {
	n, _ := strconv.ParseUint(s, base, 64)
	return n
}
