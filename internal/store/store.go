// Package store is the content-addressed blob layer under every
// on-disk store in the repository: the sweep result cache, the
// artifact store, the packed-stream cache and the columnar segment
// files. It owns the plumbing they share and nothing of their formats:
//
//   - keys are 64 lowercase hex characters (a SHA-256), derived in one
//     place (KeySpace, SumKey) and checked in one place (ValidKey), so a
//     malformed key is refused instead of reaching a path;
//   - an entry lives at <dir>/<key[:2]>/<key><ext>, under a two-hex
//     fan-out directory;
//   - a lookup is a Miss, a Hit or Corrupt, never an error to handle;
//   - every write is atomic (temp file + rename in the target
//     directory), so concurrent writers sharing a directory never
//     observe a half-written file;
//   - one walk over the fan-out directories serves stats and pruning.
package store

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Status classifies a lookup.
type Status int

const (
	// Miss means no entry exists under the key.
	Miss Status = iota
	// Hit means a valid entry was loaded.
	Hit
	// Corrupt means an entry exists but is unreadable, truncated, fails
	// its store's validation or is stored under a mismatched key (or the
	// key itself is malformed). Callers treat it as a miss and surface
	// the damage.
	Corrupt
)

// ValidKey reports whether key is a content-addressed key: exactly 64
// lowercase hex characters.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// KeySpace derives the keys of one family of content addresses that
// share a long prefix — typically an encoded configuration that every
// key under it embeds. The prefix is absorbed into a SHA-256 state once;
// each key clones that state and hashes only its tail, so Key(tail) is
// SumKey(prefix‖tail) at the cost of the tail alone. A KeySpace is
// immutable and safe for concurrent use.
type KeySpace struct {
	state []byte // marshaled SHA-256 state after the prefix
}

// NewKeySpace returns the key space of the given prefix, the
// concatenation of parts.
func NewKeySpace(parts ...[]byte) *KeySpace {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("store: key space: " + err.Error())
	}
	return &KeySpace{state: state}
}

// Key returns the hex SHA-256 of the key space's prefix followed by
// tail.
func (k *KeySpace) Key(tail []byte) string {
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(k.state); err != nil {
		panic("store: key space: " + err.Error())
	}
	h.Write(tail)
	var sum [sha256.Size]byte
	return hexKey(h.Sum(sum[:0]))
}

// SumKey returns the content-addressed key of b: its hex SHA-256.
func SumKey(b []byte) string {
	sum := sha256.Sum256(b)
	return hexKey(sum[:])
}

func hexKey(sum []byte) string {
	var buf [2 * sha256.Size]byte
	hex.Encode(buf[:], sum)
	return string(buf[:])
}

// Path returns where the entry for key with extension ext lives under
// dir, or an error when key is not a valid key.
func Path(dir, key, ext string) (string, error) {
	if !ValidKey(key) {
		return "", fmt.Errorf("store: %.16q is not a content-addressed key (64 lowercase hex characters)", key)
	}
	return filepath.Join(dir, key[:2], key+ext), nil
}

// Read returns the bytes of the file at path: Miss when it does not
// exist, Corrupt when it exists but cannot be read.
func Read(path string) ([]byte, Status) {
	b, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, Miss
		}
		return nil, Corrupt
	}
	return b, Hit
}

// WriteFile atomically replaces the file at path with what write
// produces, creating its directory as needed. The bytes go to a temp
// file in the same directory that is renamed over path only once write
// and Close have succeeded; on any failure the temp file is removed and
// path is left as it was. The file's mode is 0644.
func WriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", filepath.Base(path), err)
	}
	return nil
}

// Walk calls fn, in lexical order, for every file in root's two-hex
// fan-out directories: key is the entry's key for a file named
// <key><ext>, and "" for anything else found there, such as the temp
// litter an interrupted writer leaves behind. Names under root that are
// not fan-out directories are skipped, and a missing root walks
// nothing. An error from fn stops the walk and is returned.
func Walk(root, ext string, fn func(path, key string, d fs.DirEntry) error) error {
	fans, err := os.ReadDir(root)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	for _, fan := range fans {
		if !fan.IsDir() || !ValidKey(fan.Name()+strings.Repeat("0", 62)) {
			continue
		}
		dir := filepath.Join(root, fan.Name())
		files, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			key, ok := strings.CutSuffix(f.Name(), ext)
			if !ok || !ValidKey(key) {
				key = ""
			}
			if err := fn(filepath.Join(dir, f.Name()), key, f); err != nil {
				return err
			}
		}
	}
	return nil
}
