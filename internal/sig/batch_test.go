package sig

import (
	"testing"
)

func TestVerifyMany(t *testing.T) {
	const domain = "test/many"
	keys := make([]KeyPair, 3)
	for i := range keys {
		kp, err := NewKeyPair(nil)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = kp
	}
	var items []Item
	var want []bool
	// A mixed-sender batch: valid, invalid, duplicated and cross-signed
	// items interleaved, well past the parallel fan-out threshold.
	for i := 0; i < 40; i++ {
		kp := keys[i%len(keys)]
		msg := []byte{byte(i)}
		sg := Sign(kp.Private, domain, msg)
		switch i % 4 {
		case 0, 1: // valid
			items = append(items, Item{Pub: kp.Public, Sig: sg, Parts: [][]byte{msg}})
			want = append(want, true)
		case 2: // signature from the wrong key
			other := keys[(i+1)%len(keys)]
			items = append(items, Item{Pub: other.Public, Sig: sg, Parts: [][]byte{msg}})
			want = append(want, false)
		case 3: // exact duplicate of the previous valid item
			prev := items[len(items)-3]
			items = append(items, prev)
			want = append(want, want[len(want)-3])
		}
	}
	got := VerifyMany(domain, items)
	if len(got) != len(items) {
		t.Fatalf("%d results for %d items", len(got), len(items))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("item %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestVerifyManySmallAndEmpty(t *testing.T) {
	if got := VerifyMany("d", nil); len(got) != 0 {
		t.Fatal("non-empty result for empty batch")
	}
	kp, err := NewKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("x")
	items := []Item{
		{Pub: kp.Public, Sig: Sign(kp.Private, "d", msg), Parts: [][]byte{msg}},
		{Pub: kp.Public, Sig: []byte("short"), Parts: [][]byte{msg}},
	}
	got := VerifyMany("d", items)
	if !got[0] || got[1] {
		t.Fatalf("got %v want [true false]", got)
	}
}
