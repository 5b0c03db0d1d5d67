//! Sparsity-pattern inspection.
//!
//! Paper Fig. 2 visualizes the block sparsity of the orthogonalized
//! Kohn–Sham matrix for 864 water molecules; this module renders such
//! patterns as terminal art and computes their block occupancy statistics.

use crate::coo::CooPattern;

/// Summary statistics of a block sparsity pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternStats {
    /// Number of block rows/columns.
    pub nb: usize,
    /// Nonzero blocks.
    pub nnz_blocks: usize,
    /// Fraction of nonzero blocks.
    pub block_fill: f64,
    /// Average nonzero blocks per block column.
    pub avg_col_nnz: f64,
    /// Maximum nonzero blocks in any block column.
    pub max_col_nnz: usize,
}

/// Compute summary statistics of a COO pattern.
pub fn stats(p: &CooPattern) -> PatternStats {
    let nb = p.nb();
    let max_col = (0..nb).map(|c| p.col_nnz(c)).max().unwrap_or(0);
    PatternStats {
        nb,
        nnz_blocks: p.nnz(),
        block_fill: p.fill_fraction(),
        avg_col_nnz: if nb == 0 {
            0.0
        } else {
            p.nnz() as f64 / nb as f64
        },
        max_col_nnz: max_col,
    }
}

/// Coarse terminal rendering (`#` = any nonzero block in the cell), at most
/// `max_side` characters wide.
pub fn to_ascii(p: &CooPattern, max_side: usize) -> String {
    let nb = p.nb();
    if nb == 0 {
        return String::new();
    }
    let side = nb.min(max_side.max(1));
    let scale = nb.div_ceil(side);
    let cells = nb.div_ceil(scale);
    let mut grid = vec![false; cells * cells];
    for &(r, c) in p.entries() {
        grid[(r / scale) * cells + (c / scale)] = true;
    }
    let mut out = String::new();
    for r in 0..cells {
        for c in 0..cells {
            out.push(if grid[r * cells + c] { '#' } else { '.' });
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tridiagonal_pattern(nb: usize) -> CooPattern {
        let mut coords = Vec::new();
        for i in 0..nb {
            coords.push((i, i));
            if i + 1 < nb {
                coords.push((i, i + 1));
                coords.push((i + 1, i));
            }
        }
        CooPattern::from_coords(coords, nb)
    }

    #[test]
    fn stats_of_tridiagonal() {
        let p = tridiagonal_pattern(5);
        let s = stats(&p);
        assert_eq!(s.nb, 5);
        assert_eq!(s.nnz_blocks, 13);
        assert_eq!(s.max_col_nnz, 3);
        assert!((s.block_fill - 13.0 / 25.0).abs() < 1e-15);
        assert!((s.avg_col_nnz - 2.6).abs() < 1e-15);
    }

    #[test]
    fn ascii_downsamples() {
        let p = tridiagonal_pattern(100);
        let art = to_ascii(&p, 10);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 10);
        assert!(lines[0].starts_with('#'));
        assert!(lines[0].ends_with('.'));
    }
}
