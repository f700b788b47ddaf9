package store

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// badKeys are keys every store must refuse: none is 64 lowercase hex
// characters, and the short ones used to panic slicing key[:2].
var badKeys = map[string]string{
	"empty":      "",
	"one char":   "a",
	"traversal":  "../../x",
	"63 hex":     strings.Repeat("a", 63),
	"upper hex":  strings.Repeat("AB", 32),
	"65 hex":     strings.Repeat("a", 65),
	"slash":      strings.Repeat("a", 31) + "/" + strings.Repeat("a", 32),
	"hex suffix": "0x" + strings.Repeat("a", 62),
}

const goodKey = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

func TestValidKeyAndPath(t *testing.T) {
	for name, key := range badKeys {
		if ValidKey(key) {
			t.Errorf("%s: ValidKey(%q) = true", name, key)
		}
		if p, err := Path("root", key, ".json"); err == nil {
			t.Errorf("%s: Path(%q) = %q, want an error", name, key, p)
		}
	}
	if !ValidKey(goodKey) {
		t.Fatalf("ValidKey(%q) = false", goodKey)
	}
	p, err := Path("root", goodKey, ".bin")
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join("root", "01", goodKey+".bin"); p != want {
		t.Errorf("Path = %q, want %q", p, want)
	}
}

func TestReadClassifies(t *testing.T) {
	dir := t.TempDir()
	if b, st := Read(filepath.Join(dir, "missing")); st != Miss || b != nil {
		t.Errorf("missing file: %v %q, want Miss", st, b)
	}
	// A directory where the file should be exists but cannot be read
	// as one, which is damage, not absence.
	if _, st := Read(dir); st != Corrupt {
		t.Errorf("unreadable entry: %v, want Corrupt", st)
	}
	path := filepath.Join(dir, "present")
	if err := os.WriteFile(path, []byte("bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if b, st := Read(path); st != Hit || string(b) != "bytes" {
		t.Errorf("present file: %v %q, want Hit", st, b)
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path, err := Path(dir, goodKey, ".json")
	if err != nil {
		t.Fatal(err)
	}
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	// The fan-out directory is created on demand.
	if err := WriteFile(path, write("first")); err != nil {
		t.Fatal(err)
	}
	if b, st := Read(path); st != Hit || string(b) != "first" {
		t.Fatalf("after write: %v %q", st, b)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Errorf("mode %v, want 0644", info.Mode().Perm())
	}

	// A failing callback after a partial write leaves the old entry
	// intact and no temp file behind.
	boom := errors.New("boom")
	err = WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "half of the sec")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing write: %v, want %v", err, boom)
	}
	if b, _ := Read(path); string(b) != "first" {
		t.Errorf("failed write changed the entry to %q", b)
	}
	// And a failing first write leaves no entry at all.
	other, err := Path(dir, strings.Repeat("0", 64), ".json")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(other, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("failing write: %v, want %v", err, boom)
	}
	if _, st := Read(other); st != Miss {
		t.Errorf("failed first write left an entry: %v", st)
	}
	for _, fan := range []string{filepath.Dir(path), filepath.Dir(other)} {
		names, err := os.ReadDir(fan)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if n.Name() != filepath.Base(path) {
				t.Errorf("leftover file %s in %s", n.Name(), fan)
			}
		}
	}
}

func TestWalk(t *testing.T) {
	root := t.TempDir()
	files := []string{
		"01/" + goodKey + ".json",           // entry
		"01/" + goodKey + ".json.tmp12345",  // temp litter from an interrupted write
		"01/" + goodKey + ".bin",            // another store's extension
		"ff/notes.txt",                      // not an entry
		"artifacts/ab/" + goodKey + ".json", // not a fan-out directory
		"zz/" + goodKey + ".json",           // not hex
		"abc/" + goodKey + ".json",          // not two characters
		"top.json",                          // not in a fan-out directory
	}
	for _, f := range files {
		p := filepath.Join(root, filepath.FromSlash(f))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(root, "01", "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	var got []string
	err := Walk(root, ".json", func(path, key string, d fs.DirEntry) error {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.Name() != filepath.Base(path) {
			t.Errorf("entry %s reported as %s", path, d.Name())
		}
		got = append(got, filepath.ToSlash(rel)+"="+key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"01/" + goodKey + ".bin=",
		"01/" + goodKey + ".json=" + goodKey,
		"01/" + goodKey + ".json.tmp12345=",
		"ff/notes.txt=",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("Walk reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// A missing root walks nothing, and fn's error stops the walk.
	if err := Walk(filepath.Join(root, "missing"), ".json", nil); err != nil {
		t.Errorf("missing root: %v", err)
	}
	stop := errors.New("stop")
	calls := 0
	err = Walk(root, ".json", func(string, string, fs.DirEntry) error { calls++; return stop })
	if !errors.Is(err, stop) || calls != 1 {
		t.Errorf("stopping walk: err %v after %d calls, want %v after 1", err, calls, stop)
	}
}

// TestKeySpace checks that a key space's key is the plain SHA-256 of
// prefix‖tail however the prefix is split into parts, across the
// SHA-256 block boundary, and that a key space is reusable.
func TestKeySpace(t *testing.T) {
	msg := []byte(strings.Repeat("0123456789abcdefghijklmnopqrstuvwxyz", 8))
	for _, cut := range []int{0, 1, 55, 63, 64, 65, 128, len(msg)} {
		want := SumKey(msg)
		prefix, tail := msg[:cut], msg[cut:]
		for _, ks := range []*KeySpace{
			NewKeySpace(prefix),
			NewKeySpace(prefix[:cut/2], prefix[cut/2:]),
		} {
			for i := 0; i < 2; i++ {
				if got := ks.Key(tail); got != want {
					t.Fatalf("cut %d: Key = %s, want %s", cut, got, want)
				}
			}
			if !ValidKey(want) {
				t.Fatalf("SumKey %q is not a valid key", want)
			}
		}
	}
	if got, want := SumKey(nil), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"; got != want {
		t.Fatalf("SumKey(nil) = %s, want %s", got, want)
	}
}
