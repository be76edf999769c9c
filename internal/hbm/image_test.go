package hbm

import (
	"bytes"
	"testing"

	"github.com/safari-repro/hbmrh/internal/config"
)

// ImageRows counts the rows of the device that hold a materialized
// row-sized buffer, for the footprint test outside the package.
func (d *Device) ImageRows() int {
	n := 0
	for i := range d.banks {
		for _, pg := range d.banks[i].rows {
			if pg == nil {
				continue
			}
			for k := range pg.rows {
				if pg.live&(1<<k) != 0 && pg.rows[k].img.data != nil {
					n++
				}
			}
		}
	}
	return n
}

// TestUniformWriteRowHoldsNoImage pins the row image's life cycle: a
// uniform WriteRow leaves its row as its fill byte, a committed flip
// materializes a buffer holding the fill except at the flipped bits, a
// uniform rewrite hands the buffer back, and the next flip takes it
// again without allocating.
func TestUniformWriteRowHoldsNoImage(t *testing.T) {
	d := newDevice(t, config.SmallChip())
	disableECC(t, d)
	b := bankAddr(7, 0, 0) // channel 7: the most vulnerable channel
	phys := midSubarrayRow(d, 1)
	m := d.Mapper()
	lv, la, lb := m.ToLogical(phys), m.ToLogical(phys-1), m.ToLogical(phys+1)
	g := d.Geometry()
	const fill = 0xFF
	ones := bytes.Repeat([]byte{fill}, g.ColumnBytes)
	zeros := make([]byte, g.ColumnBytes)
	bank := &d.banks[flat(d, b)]
	writeUniform := func(logical int, col []byte) {
		if err := openRow(d, b, logical); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteRow(flat(d, b), col); err != nil {
			t.Fatal(err)
		}
		if err := closeRow(d, b); err != nil {
			t.Fatal(err)
		}
	}

	writeUniform(lv, ones)
	writeUniform(la, zeros)
	writeUniform(lb, zeros)
	if n := d.ImageRows(); n != 0 {
		t.Fatalf("%d rows hold an image after uniform writes", n)
	}
	got, err := readRow(d, b, lv)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rowPattern(d, fill)) {
		t.Fatalf("uniform row reads %x, want its fill %#x", got, fill)
	}

	before := d.Stats().BitflipsCommitted
	if err := hammerPair(d, b, la, lb, 256*1024, d.Config().Timing.TRAS); err != nil {
		t.Fatal(err)
	}
	if got, err = readRow(d, b, lv); err != nil {
		t.Fatal(err)
	}
	img := bank.rowAt(phys).img
	if img.data == nil {
		t.Fatal("a committed flip left the victim without an image")
	}
	flips := countMismatches(img.data, rowPattern(d, fill))
	if committed := d.Stats().BitflipsCommitted - before; flips == 0 || int64(flips) != committed {
		t.Fatalf("image differs from the fill in %d bits, %d flips committed", flips, committed)
	}
	if !bytes.Equal(got, img.data) {
		t.Fatal("the victim reads out other than its image")
	}
	if n := d.ImageRows(); n != 1 {
		t.Fatalf("%d rows hold an image, want the victim's alone", n)
	}

	writeUniform(lv, ones)
	if rs := bank.rowAt(phys); rs.img.data != nil || rs.img.fill != fill {
		t.Fatalf("uniform rewrite left image %+v", rs.img)
	}
	if len(d.spare) != 1 {
		t.Fatalf("free list holds %d buffers after the rewrite, want 1", len(d.spare))
	}

	reflipped := true
	allocs := testing.AllocsPerRun(10, func() {
		writeUniform(lv, ones)
		if err := hammerPair(d, b, la, lb, 256*1024, d.Config().Timing.TRAS); err != nil {
			t.Fatal(err)
		}
		if err := openRow(d, b, lv); err != nil {
			t.Fatal(err)
		}
		reflipped = reflipped && bank.rowAt(phys).img.data != nil
		if err := closeRow(d, b); err != nil {
			t.Fatal(err)
		}
	})
	if !reflipped {
		t.Fatal("a rehammered victim did not flip again")
	}
	if allocs != 0 {
		t.Fatalf("rewrite and reflip allocate %v times, want the free list's buffer", allocs)
	}
	if len(d.spare) != 0 || d.ImageRows() != 1 {
		t.Fatalf("free list %d, image rows %d: want the one buffer back on the victim", len(d.spare), d.ImageRows())
	}
}
