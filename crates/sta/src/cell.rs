//! Gate (cell) models and the cell library.
//!
//! The paper models the driving inverter by "a linear resistor" (its
//! pull-up) plus lumped parasitics; receiving gates appear purely as input
//! capacitance.  [`Cell`] captures exactly that switch-resistance model,
//! which is also how Elmore-based delay estimation is used inside modern
//! static timing tools before detailed characterization is available.

use rctree_core::units::{Farads, Ohms, Seconds};

use crate::error::{Result, StaError};

/// A logic cell described by the linear switch-resistance model.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Cell name (e.g. `"inv_1x"`).
    pub name: String,
    /// Effective output (pull-up/pull-down) resistance.
    pub drive_resistance: Ohms,
    /// Input (gate) capacitance presented to the driving net.
    pub input_capacitance: Farads,
    /// Intrinsic switching delay added independent of load.
    pub intrinsic_delay: Seconds,
}

impl Cell {
    /// Creates a cell from its three model parameters.
    pub fn new(
        name: impl Into<String>,
        drive_resistance: Ohms,
        input_capacitance: Farads,
        intrinsic_delay: Seconds,
    ) -> Self {
        Cell {
            name: name.into(),
            drive_resistance,
            input_capacitance,
            intrinsic_delay,
        }
    }
}

/// A named collection of cells.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellLibrary {
    /// Sorted by name: a lookup is a binary search, and a cell's position
    /// is a stable id while the library is unchanged.
    cells: Vec<Cell>,
}

impl CellLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// A small representative NMOS library in the spirit of the paper's
    /// technology: inverters and buffers of increasing drive strength, plus
    /// the superbuffer used for the PLA lines (380 Ω effective resistance).
    pub fn nmos_1981() -> Self {
        let mut lib = CellLibrary::new();
        lib.insert(Cell::new(
            "inv_1x",
            Ohms::new(10_000.0),
            Farads::from_pico(0.013),
            Seconds::from_nano(1.0),
        ));
        lib.insert(Cell::new(
            "inv_4x",
            Ohms::new(2_500.0),
            Farads::from_pico(0.052),
            Seconds::from_nano(0.8),
        ));
        lib.insert(Cell::new(
            "buf_8x",
            Ohms::new(1_250.0),
            Farads::from_pico(0.104),
            Seconds::from_nano(1.2),
        ));
        lib.insert(Cell::new(
            "superbuffer",
            Ohms::new(380.0),
            Farads::from_pico(0.2),
            Seconds::from_nano(1.5),
        ));
        lib
    }

    /// Adds (or replaces) a cell.
    pub fn insert(&mut self, cell: Cell) {
        match self.cells.binary_search_by(|c| c.name.cmp(&cell.name)) {
            Ok(i) => self.cells[i] = cell,
            Err(i) => self.cells.insert(i, cell),
        }
    }

    /// Looks up a cell by name.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::UnknownCell`] if the cell is not in the library.
    pub fn cell(&self, name: &str) -> Result<&Cell> {
        Ok(&self.cells[self.position(name)?])
    }

    /// The position of the cell named `name`, for [`Self::at`].
    pub(crate) fn position(&self, name: &str) -> Result<usize> {
        self.cells
            .binary_search_by(|c| c.name.as_str().cmp(name))
            .map_err(|_| StaError::UnknownCell {
                name: name.to_string(),
            })
    }

    /// The cell at `position`.
    pub(crate) fn at(&self, position: usize) -> &Cell {
        &self.cells[position]
    }

    /// Number of cells in the library.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if the library holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over the cells in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_lookup_and_iteration() {
        let lib = CellLibrary::nmos_1981();
        assert!(!lib.is_empty());
        assert_eq!(lib.len(), 4);
        let inv = lib.cell("inv_1x").unwrap();
        assert_eq!(inv.drive_resistance, Ohms::new(10_000.0));
        assert!(lib.cell("nand2").is_err());
        let names: Vec<&str> = lib.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["buf_8x", "inv_1x", "inv_4x", "superbuffer"]);
    }

    #[test]
    fn stronger_cells_have_lower_resistance_and_higher_input_cap() {
        let lib = CellLibrary::nmos_1981();
        let weak = lib.cell("inv_1x").unwrap();
        let strong = lib.cell("inv_4x").unwrap();
        assert!(strong.drive_resistance < weak.drive_resistance);
        assert!(strong.input_capacitance > weak.input_capacitance);
    }

    #[test]
    fn insert_replaces_existing_cell() {
        let mut lib = CellLibrary::new();
        lib.insert(Cell::new(
            "x",
            Ohms::new(1.0),
            Farads::new(1.0),
            Seconds::ZERO,
        ));
        lib.insert(Cell::new(
            "x",
            Ohms::new(2.0),
            Farads::new(1.0),
            Seconds::ZERO,
        ));
        assert_eq!(lib.len(), 1);
        assert_eq!(lib.cell("x").unwrap().drive_resistance, Ohms::new(2.0));
    }
}
