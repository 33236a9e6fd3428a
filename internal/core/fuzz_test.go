package core

import (
	"testing"

	"repro/internal/seqskip"
)

// FuzzListAgainstModel feeds arbitrary operation scripts to the list and a
// map model. Each byte encodes one operation: the low 2 bits pick the
// operation, the rest the key.
func FuzzListAgainstModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x04, 0x05, 0x06})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x00, 0x01})
	f.Add([]byte("insert-delete-search-repeat"))
	f.Fuzz(func(t *testing.T, script []byte) {
		l := NewList[int, int]()
		model := map[int]int{}
		for _, b := range script {
			k := int(b >> 2)
			switch b & 3 {
			case 0, 3:
				_, in := model[k]
				if _, ok := l.Insert(nil, k, k); ok == in {
					t.Fatalf("Insert(%d) disagrees with model", k)
				}
				model[k] = k
			case 1:
				_, in := model[k]
				if _, ok := l.Delete(nil, k); ok != in {
					t.Fatalf("Delete(%d) disagrees with model", k)
				}
				delete(model, k)
			case 2:
				_, in := model[k]
				if got := l.Search(nil, k) != nil; got != in {
					t.Fatalf("Search(%d) disagrees with model", k)
				}
			}
		}
		if l.Len() != len(model) {
			t.Fatalf("Len = %d, model = %d", l.Len(), len(model))
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzSkipListAgainstSeqskip feeds the same scripts to the concurrent skip
// list and Pugh's sequential one, with the structure validator run at the
// end.
func FuzzSkipListAgainstSeqskip(f *testing.F) {
	f.Add(uint64(1), []byte{})
	f.Add(uint64(2), []byte{0x00, 0x01, 0x02})
	f.Add(uint64(3), []byte("tower construction and teardown"))
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		l := NewSkipList[int, int](WithSeed(seed))
		model := seqskip.New[int, int](0, seed)
		for _, b := range script {
			k := int(b >> 2)
			switch b & 3 {
			case 0, 3:
				_, ok := l.Insert(nil, k, k)
				if ok != model.Insert(k, k) {
					t.Fatalf("Insert(%d) disagrees", k)
				}
			case 1:
				_, ok := l.Delete(nil, k)
				if ok != model.Delete(k) {
					t.Fatalf("Delete(%d) disagrees", k)
				}
			case 2:
				if (l.Search(nil, k) != nil) != model.Contains(k) {
					t.Fatalf("Search(%d) disagrees", k)
				}
			}
		}
		if l.Len() != model.Len() {
			t.Fatalf("Len = %d, model = %d", l.Len(), model.Len())
		}
		if err := l.CheckStructure(); err != nil {
			t.Fatal(err)
		}
	})
}
