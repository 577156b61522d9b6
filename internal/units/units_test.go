package units

import (
	"testing"
	"testing/quick"
)

func TestPageSizeBytes(t *testing.T) {
	cases := []struct {
		s    PageSize
		want uint64
	}{
		{Size4K, 4096},
		{Size2M, 2 << 20},
		{Size1G, 1 << 30},
	}
	for _, c := range cases {
		if got := c.s.Bytes(); got != c.want {
			t.Errorf("%v.Bytes() = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestPageSizeOrder(t *testing.T) {
	if Size4K.Order() != 0 || Size2M.Order() != 9 || Size1G.Order() != 18 {
		t.Fatalf("orders = %d,%d,%d; want 0,9,18",
			Size4K.Order(), Size2M.Order(), Size1G.Order())
	}
}

func TestPageSizeFrames(t *testing.T) {
	if Size4K.Frames() != 1 {
		t.Errorf("4K frames = %d", Size4K.Frames())
	}
	if Size2M.Frames() != 512 {
		t.Errorf("2M frames = %d", Size2M.Frames())
	}
	if Size1G.Frames() != 512*512 {
		t.Errorf("1G frames = %d", Size1G.Frames())
	}
}

func TestPageSizeString(t *testing.T) {
	if Size4K.String() != "4KB" || Size2M.String() != "2MB" || Size1G.String() != "1GB" {
		t.Fatal("unexpected String() output")
	}
	if s := PageSize(42).String(); s != "PageSize(42)" {
		t.Fatalf("invalid size String() = %q", s)
	}
}

func TestInvalidPageSizePanics(t *testing.T) {
	for _, f := range []func(){
		func() { PageSize(99).Bytes() },
		func() { PageSize(99).Order() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid PageSize")
				}
			}()
			f()
		}()
	}
}

func TestOrderSize(t *testing.T) {
	if OrderSize(0) != Page4K {
		t.Errorf("OrderSize(0) = %d", OrderSize(0))
	}
	if OrderSize(9) != Page2M {
		t.Errorf("OrderSize(9) = %d", OrderSize(9))
	}
	if OrderSize(18) != Page1G {
		t.Errorf("OrderSize(18) = %d", OrderSize(18))
	}
}

func TestAlignment(t *testing.T) {
	if Align(Page2M+123, Page2M) != Page2M {
		t.Error("Align down failed")
	}
	if AlignUp(Page2M+123, Page2M) != 2*Page2M {
		t.Error("AlignUp failed")
	}
	if AlignUp(Page2M, Page2M) != Page2M {
		t.Error("AlignUp of aligned value should be identity")
	}
	if !IsAligned(3*Page1G, Page1G) || IsAligned(3*Page1G+Page4K, Page1G) {
		t.Error("IsAligned failed")
	}
}

func TestAlignProperties(t *testing.T) {
	f := func(addr uint32) bool {
		a := uint64(addr)
		down := Align(a, Page4K)
		up := AlignUp(a, Page4K)
		if down > a || up < a {
			return false
		}
		if !IsAligned(down, Page4K) || !IsAligned(up, Page4K) {
			return false
		}
		return up-down == 0 || up-down == Page4K
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameRegionArithmetic(t *testing.T) {
	pfn := uint64(5*FramesPerRegion + 7)
	if FrameAddr(pfn) != 5*Page1G+7*Page4K {
		t.Errorf("FrameAddr = %d", FrameAddr(pfn))
	}
	if RegionOfFrame(pfn) != 5 {
		t.Errorf("RegionOfFrame = %d", RegionOfFrame(pfn))
	}
}

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		n    uint64
		want string
	}{
		{512, "512B"},
		{4 * KiB, "4KB"},
		{Page2M, "2MB"},
		{Page1G, "1GB"},
		{Page1G + Page1G/2, "1.5GB"},
	}
	for _, c := range cases {
		if got := HumanBytes(c.n); got != c.want {
			t.Errorf("HumanBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}
