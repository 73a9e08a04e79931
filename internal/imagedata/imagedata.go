// Package imagedata supplies the grayscale benchmark images the autoAx
// flow is profiled and evaluated on.
//
// The paper uses 384×256 images from the Berkeley Segmentation Dataset;
// this reproduction generates synthetic images with natural-image-like
// statistics instead (smooth luminance gradients, soft blobs, sharp edges
// and mild texture noise).  What the methodology actually consumes is
// (a) realistic operand distributions — neighbouring pixels must be
// strongly correlated, producing the diagonal ridge of the paper's
// Figure 3 — and (b) structure for SSIM to measure; both properties hold
// for the synthetic set.  LoadPNG reads real images in their place.
package imagedata

import (
	"fmt"
	"image/png"
	"math"
	"math/rand"
	"os"
)

// Image is an 8-bit grayscale image in row-major order.
type Image struct {
	W, H int
	Pix  []uint8
}

// New returns a zeroed w×h image.
func New(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y); the caller must stay in bounds.
func (im *Image) At(x, y int) uint8 { return im.Pix[y*im.W+x] }

// Set writes the pixel at (x, y).
func (im *Image) Set(x, y int, v uint8) { im.Pix[y*im.W+x] = v }

// AtClamped returns the pixel at (x, y) with coordinates clamped to the
// image border (replicate padding), the convention used by the filters.
func (im *Image) AtClamped(x, y int) uint8 {
	if x < 0 {
		x = 0
	}
	if x >= im.W {
		x = im.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	c := New(im.W, im.H)
	copy(c.Pix, im.Pix)
	return c
}

// Synthetic generates one natural-statistics test image.  The same
// (w, h, seed) always produces the same image.
func Synthetic(w, h int, seed int64) *Image {
	rng := rand.New(rand.NewSource(seed))
	im := New(w, h)
	f := make([]float64, w*h)

	// Smooth base gradient with a random orientation and offset.
	gx := rng.Float64()*2 - 1
	gy := rng.Float64()*2 - 1
	base := 60 + rng.Float64()*120
	amp := 30 + rng.Float64()*60
	norm := math.Hypot(float64(w), float64(h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f[y*w+x] = base + amp*(gx*float64(x)+gy*float64(y))/norm
		}
	}

	// Soft Gaussian blobs (objects / lighting).
	blobs := 4 + rng.Intn(6)
	for i := 0; i < blobs; i++ {
		cx := rng.Float64() * float64(w)
		cy := rng.Float64() * float64(h)
		sigma := (0.05 + 0.2*rng.Float64()) * norm
		a := (rng.Float64()*2 - 1) * 90
		inv := 1 / (2 * sigma * sigma)
		for y := 0; y < h; y++ {
			dy := float64(y) - cy
			for x := 0; x < w; x++ {
				dx := float64(x) - cx
				f[y*w+x] += a * math.Exp(-(dx*dx+dy*dy)*inv)
			}
		}
	}

	// Sharp rectangles (edges for the Sobel detector to find).
	rects := 3 + rng.Intn(5)
	for i := 0; i < rects; i++ {
		x0 := rng.Intn(w)
		y0 := rng.Intn(h)
		rw := 4 + rng.Intn(w/3+1)
		rh := 4 + rng.Intn(h/3+1)
		a := (rng.Float64()*2 - 1) * 80
		for y := y0; y < y0+rh && y < h; y++ {
			for x := x0; x < x0+rw && x < w; x++ {
				f[y*w+x] += a
			}
		}
	}

	// Mild texture noise, spatially smoothed once so adjacent pixels stay
	// correlated like film grain rather than salt-and-pepper.
	noise := make([]float64, w*h)
	for i := range noise {
		noise[i] = rng.NormFloat64() * 6
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sum, cnt := 0.0, 0.0
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny := x+dx, y+dy
					if nx >= 0 && nx < w && ny >= 0 && ny < h {
						sum += noise[ny*w+nx]
						cnt++
					}
				}
			}
			v := f[y*w+x] + sum/cnt
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			im.Pix[y*w+x] = uint8(v + 0.5)
		}
	}
	return im
}

// BenchmarkSet generates n synthetic benchmark images; image i uses seed
// seed+i so sets of different sizes share a prefix.
func BenchmarkSet(n, w, h int, seed int64) []*Image {
	set := make([]*Image, n)
	for i := range set {
		set[i] = Synthetic(w, h, seed+int64(i))
	}
	return set
}

// LoadPNG reads a PNG file and converts it to 8-bit grayscale (ITU-R BT.601
// luma weights).
func LoadPNG(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	src, err := png.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("imagedata: decode %s: %w", path, err)
	}
	b := src.Bounds()
	im := New(b.Dx(), b.Dy())
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r, g, bl, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			lum := (299*r + 587*g + 114*bl) / 1000
			im.Set(x, y, uint8(lum>>8))
		}
	}
	return im, nil
}
