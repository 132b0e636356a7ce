package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"compass/internal/machine"
)

// goodHeader builds a syntactically valid 80-byte header.
func goodHeader(version uint32) []byte {
	hdr := make([]byte, headerSize)
	copy(hdr, magic[:])
	binary.BigEndian.PutUint32(hdr[12:16], version)
	binary.BigEndian.PutUint64(hdr[48:56], 12345)
	binary.BigEndian.PutUint64(hdr[56:64], 100)
	binary.BigEndian.PutUint64(hdr[64:72], 200)
	binary.BigEndian.PutUint64(hdr[72:80], 300)
	return hdr
}

// Corrupt, truncated and empty streams must come back as clean typed
// errors, never raw gob or io errors.
func TestReadInfoCorruptHeaders(t *testing.T) {
	tests := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"one byte", []byte{'C'}, ErrTruncated},
		{"half header", goodHeader(Version)[:40], ErrTruncated},
		{"off by one", goodHeader(Version)[:headerSize-1], ErrTruncated},
		{"bad magic", append([]byte("DEFINITELY NOT A CKPT"), goodHeader(Version)...), ErrBadMagic},
		{"zeros", make([]byte, headerSize), ErrBadMagic},
		{"magic case", bytes.ToLower(goodHeader(Version)), ErrBadMagic},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadInfo(bytes.NewReader(tt.data))
			if !errors.Is(err, tt.want) {
				t.Errorf("ReadInfo: err = %v, want %v", err, tt.want)
			}
		})
	}
}

// A well-formed header round-trips through ReadInfo.
func TestReadInfoParsesHeader(t *testing.T) {
	inf, err := ReadInfo(bytes.NewReader(goodHeader(Version)))
	if err != nil {
		t.Fatal(err)
	}
	if inf.Version != Version || inf.Cycle != 12345 ||
		inf.UserCycles != 100 || inf.KernelCycles != 200 || inf.IntrCycles != 300 {
		t.Errorf("parsed %+v", inf)
	}
}

// Restore on a valid header with no body (or a half body) reports the
// truncation, not a bare EOF.
func TestRestoreTruncatedBody(t *testing.T) {
	if _, _, err := RestoreFullShards(bytes.NewReader(goodHeader(Version)), 0); err == nil ||
		!strings.Contains(err.Error(), "truncated body") {
		t.Errorf("headless body: err = %v", err)
	}

	// A real checkpoint cut off mid-body.
	m := machine.New(smallConfig())
	m.Sim.Run()
	var full bytes.Buffer
	if err := Save(&full, m); err != nil {
		t.Fatal(err)
	}
	cut := full.Bytes()[:full.Len()/2]
	if _, _, err := RestoreFullShards(bytes.NewReader(cut), 0); err == nil ||
		!strings.Contains(err.Error(), "truncated body") {
		t.Errorf("half body: err = %v", err)
	}
}

// Restore rejects an unknown format version before touching the body.
func TestRestoreRejectsVersion(t *testing.T) {
	if _, _, err := RestoreFullShards(bytes.NewReader(goodHeader(Version+1)), 0); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("err = %v, want version mismatch", err)
	}
}

func smallConfig() machine.Config {
	cfg := machine.Default()
	cfg.CPUs = 1
	cfg.DiskBlocks = 256
	return cfg
}
