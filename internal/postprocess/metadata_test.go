package postprocess

import (
	"reflect"
	"strings"
	"testing"
)

// parseKV is the map-per-row METADATA parser decodeMetadata replaced, kept
// as the reference the one-pass decoder must agree with.
func parseKV(content string) map[string]string {
	out := make(map[string]string)
	for _, line := range strings.Split(content, "\n") {
		if i := strings.IndexByte(line, '='); i > 0 {
			out[line[:i]] = line[i+1:]
		}
	}
	return out
}

// referenceMetadata decodes content the way applySelf/applyScript used to:
// one map lookup per field.
func referenceMetadata(content string) metadata {
	kv := parseKV(content)
	return metadata{
		exe: kv["EXE"], category: kv["CATEGORY"],
		ppid: atoi(kv["PPID"]), uid: atoi(kv["UID"]), gid: atoi(kv["GID"]),
		inode: atoi(kv["INODE"]), size: atoi(kv["SIZE"]), mode: atoiBase(kv["MODE"], 8),
		ownerUID: atoi(kv["OWNER_UID"]), ownerGID: atoi(kv["OWNER_GID"]),
		atime: atoi(kv["ATIME"]), mtime: atoi(kv["MTIME"]), ctime: atoi(kv["CTIME"]),
	}
}

func TestDecodeMetadataMatchesParseKV(t *testing.T) {
	full := "EXE=/usr/bin/python3.10\nCATEGORY=python\nPPID=41\nUID=1000\nGID=100\n" +
		"INODE=123456\nSIZE=5904\nMODE=100755\nOWNER_UID=0\nOWNER_GID=0\n" +
		"ATIME=1700000000\nMTIME=1700000001\nCTIME=1700000002"
	cases := map[string]string{
		"full":                 full,
		"trailing newline":     full + "\n",
		"empty":                "",
		"only newlines":        "\n\n\n",
		"repeated key":         "EXE=/first\nSIZE=1\nEXE=/second\nSIZE=2",
		"repeated bad last":    "PPID=7\nPPID=x",
		"line without =":       "EXE=/bin/sh\njust text\nSIZE=9",
		"empty key":            "=orphan\nEXE=/bin/true",
		"unknown keys":         "COLOR=blue\nEXE=/bin/ls\nSIZE_EXTRA=3\nexe=/lower",
		"value with =":         "EXE=/opt/a=b\nCATEGORY==",
		"empty values":         "EXE=\nSIZE=\nMODE=",
		"non-octal mode":       "MODE=999",
		"signs and overflow":   "PPID=-3\nSIZE=+4\nINODE=99999999999999999999999",
		"carriage returns":     "EXE=/bin/sh\r\nSIZE=5\r",
		"no newline, no value": "EXE",
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			if got, want := decodeMetadata(content), referenceMetadata(content); got != want {
				t.Fatalf("decodeMetadata(%q)\n got %+v\nwant %+v", content, got, want)
			}
		})
	}
}

// TestSplitLinesMatchesSplit pins splitLines to the strings.Split-and-filter
// form it replaced, nil result included.
func TestSplitLinesMatchesSplit(t *testing.T) {
	reference := func(content string) []string {
		if content == "" {
			return nil
		}
		var out []string
		for _, line := range strings.Split(content, "\n") {
			if line != "" {
				out = append(out, line)
			}
		}
		return out
	}
	for _, content := range []string{"", "\n", "\n\n\n", "a", "a\n", "\na", "a\n\nb\n", "/lib64/libc.so.6\n/lib64/libm.so.6", " \n\t\n"} {
		if got, want := splitLines(content), reference(content); !reflect.DeepEqual(got, want) {
			t.Errorf("splitLines(%q) = %#v, want %#v", content, got, want)
		}
	}
}
