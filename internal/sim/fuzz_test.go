package sim

import (
	"bytes"
	"testing"
)

// FuzzReplayer feeds arbitrary bytes through the trace parser. NewReplayer
// may reject the input, but nothing may panic; once Err reports a failure
// Next must keep returning false; and every record Next accepts must carry
// the next sequence number.
func FuzzReplayer(f *testing.F) {
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf)
	if err != nil {
		f.Fatal(err)
	}
	digests := sampleDigests()
	for i, ev := range sampleEvents() {
		if err := rec.Record(ev, digests[i]); err != nil {
			f.Fatal(err)
		}
	}
	if err := rec.Flush(); err != nil {
		f.Fatal(err)
	}
	trace := buf.Bytes()
	f.Add(trace)
	f.Add(trace[:len(trace)/2])                                                  // truncated mid-record
	f.Add(trace[:bytes.IndexByte(trace, '\n')+1])                                // header only
	f.Add(bytes.Replace(trace, []byte(TraceFormat), []byte("other"), 1))         // wrong format
	f.Add(bytes.Replace(trace, []byte(`"version":1`), []byte(`"version":9`), 1)) // wrong version
	f.Add(bytes.Replace(trace, []byte(`"seq":1`), []byte(`"seq":7`), 1))         // out of sequence
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rp, err := NewReplayer(bytes.NewReader(data))
		if err != nil {
			return
		}
		var n uint64
		for {
			if _, ok := rp.Next(); !ok {
				break
			}
			if got := rp.pending[len(rp.pending)-1].Seq; got != n {
				t.Fatalf("record %d returned with seq %d", n, got)
			}
			n++
		}
		if rp.Err() != nil {
			for i := 0; i < 3; i++ {
				if _, ok := rp.Next(); ok {
					t.Fatalf("Next returned a record after Err() = %v", rp.Err())
				}
			}
		}
	})
}
