package fastq

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"persona/internal/agd"
	"persona/internal/reads"
)

// FuzzImportFASTQ runs arbitrary bytes as a FASTQ file through the import
// into a dataset and the export back to FASTQ. Neither panics. The import
// fails exactly when the scanner, run alone, fails or finds no record. Every
// record it accepts comes back with the same name and qualities, and with
// its bases as the bases column reads them: upper-case A, C, G, T and N
// byte for byte, lower-case a, c, g and t in upper case, and any other byte
// as N. A record with no bases fails the scan, so the import fails, and
// nothing the import accepts can the export refuse.
func FuzzImportFASTQ(f *testing.F) {
	f.Add([]byte(sample), uint8(1))
	f.Add([]byte("@r1\nACGTN\n+\nIIIII\n@r2\nacgtn\n+\n!!!!!\n@r3\nRYKM.-*\n+\n#######\n"), uint8(2))
	f.Add([]byte("@r\r\nNNNNACGT\r\n+r\r\n@@@@@@@@\r\n"), uint8(0))
	f.Add([]byte("@r\nACGT\n+\nIII\n"), uint8(3))
	f.Add([]byte("@r\n\n+\n\n"), uint8(1))
	f.Add([]byte("@r1\nACGT\n+\nIIII\n@r2\n\n+\n\n@r3\nA\n+\nI\n"), uint8(1))
	f.Add([]byte("@r\nAC"), uint8(1))
	f.Add([]byte("garbage\n"), uint8(1))
	f.Add([]byte{}, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		var want []reads.Read
		sc := NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			want = append(want, sc.Read())
		}
		store := agd.NewMemStore()
		_, err := importDataset(store, "ds", string(data), 1+int(chunk%8))
		if sc.Err() != nil || len(want) == 0 {
			if err == nil {
				t.Fatalf("imported what the scanner rejects (%v, %d records)", sc.Err(), len(want))
			}
			return
		}
		for i, r := range want {
			if err := r.Validate(); err != nil {
				t.Fatalf("the scanner passed record %d, which is invalid: %v", i, err)
			}
		}
		if err != nil {
			t.Fatalf("import of %d scanned records: %v", len(want), err)
		}

		ds, err := agd.Open(store, "ds")
		if err != nil {
			t.Fatal(err)
		}
		in, err := ds.Groups(agd.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		var out bytes.Buffer
		n, err := ExportStream(context.Background(), in, &out)
		if err != nil || n != uint64(len(want)) {
			t.Fatalf("exported %d of %d records: %v", n, len(want), err)
		}

		back := NewScanner(&out)
		i := 0
		for ; back.Scan(); i++ {
			if i >= len(want) {
				t.Fatalf("export holds more than the %d records imported", len(want))
			}
			got, w := back.Read(), want[i]
			if got.Meta != w.Meta || !bytes.Equal(got.Quals, w.Quals) {
				t.Fatalf("record %d: name %q, qualities %q; imported %q, %q", i, got.Meta, got.Quals, w.Meta, w.Quals)
			}
			if len(got.Bases) != len(w.Bases) {
				t.Fatalf("record %d: %d bases back of %d", i, len(got.Bases), len(w.Bases))
			}
			for j, b := range w.Bases {
				expect := byte('N')
				if up := b &^ 0x20; strings.IndexByte("ACGT", up) >= 0 {
					expect = up
				}
				if got.Bases[j] != expect {
					t.Fatalf("record %d base %d: %q came back as %q", i, j, b, got.Bases[j])
				}
			}
		}
		if err := back.Err(); err != nil || i != len(want) {
			t.Fatalf("the export scans to %d of %d records: %v", i, len(want), err)
		}
	})
}
