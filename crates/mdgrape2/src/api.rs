//! The host library of Table 3, name for name.
//!
//! | paper routine | method |
//! |---|---|
//! | `MR1allocateboard` | [`Mr1Library::mr1_allocate_board`] |
//! | `MR1init` | [`Mr1Library::mr1_init`] |
//! | `MR1SetTable` | [`Mr1Library::mr1_set_table`] |
//! | `MR1calcvdw_block2` | [`Mr1Library::mr1_calcvdw_block2`] |
//! | `MR1free` | [`Mr1Library::mr1_free`] |
//!
//! The coefficient RAM is loaded with
//! [`Mr1Library::mr1_set_coefficients`] (the real library's coefficient
//! setter is not listed in Table 3 but existed; without it the 32-type
//! RAM of §3.5.3 would be unreachable).

use crate::board::MdgBoardError;
use crate::chip::AtomCoefficients;
use crate::cluster::BOARDS_PER_CLUSTER;
use crate::jstore::JStore;
use crate::pipeline::PipelineMode;
use crate::system::{MdgPassResult, Mdgrape2Config, Mdgrape2System};
use crate::tables::GFunction;
use mdm_core::vec3::Vec3;
use mdm_funceval::FunctionEvaluator;

/// Errors from protocol misuse or the boards.
#[derive(Debug, Clone, PartialEq)]
pub enum Mr1Error {
    /// Out-of-protocol call.
    Protocol(&'static str),
    /// Hardware-side failure.
    Board(MdgBoardError),
    /// Table generation failed.
    Table(String),
}

impl std::fmt::Display for Mr1Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Protocol(m) => write!(f, "protocol violation: {m}"),
            Self::Board(e) => write!(f, "board error: {e}"),
            Self::Table(e) => write!(f, "table error: {e}"),
        }
    }
}

impl std::error::Error for Mr1Error {}

impl From<MdgBoardError> for Mr1Error {
    fn from(e: MdgBoardError) -> Self {
        Self::Board(e)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Created,
    Allocated,
    Ready,
}

/// The MDGRAPE-2 host library (Table 3).
pub struct Mr1Library {
    state: State,
    boards_requested: usize,
    system: Option<Mdgrape2System>,
    table_loaded: bool,
}

impl Default for Mr1Library {
    fn default() -> Self {
        Self::new()
    }
}

impl Mr1Library {
    /// A fresh handle.
    pub fn new() -> Self {
        Self {
            state: State::Created,
            boards_requested: 0,
            system: None,
            table_loaded: false,
        }
    }

    /// `MR1allocateboard`: set the number of boards to acquire.
    pub fn mr1_allocate_board(&mut self, boards: usize) -> Result<(), Mr1Error> {
        if self.state != State::Created {
            return Err(Mr1Error::Protocol("boards already allocated"));
        }
        if boards == 0 {
            return Err(Mr1Error::Protocol("must allocate at least one board"));
        }
        self.boards_requested = boards;
        self.state = State::Allocated;
        Ok(())
    }

    /// `MR1init`: acquire the boards. A default (identity) table is
    /// resident until `MR1SetTable` is called.
    pub fn mr1_init(&mut self) -> Result<(), Mr1Error> {
        if self.state != State::Allocated {
            return Err(Mr1Error::Protocol("MR1allocateboard must precede MR1init"));
        }
        let clusters = self.boards_requested.div_ceil(BOARDS_PER_CLUSTER);
        let default_table = GFunction::Dispersion6Force
            .build_evaluator()
            .map_err(|e| Mr1Error::Table(e.to_string()))?;
        self.system = Some(Mdgrape2System::new(
            Mdgrape2Config { clusters },
            default_table,
            AtomCoefficients::uniform(1.0, 0.0),
        ));
        self.state = State::Ready;
        self.table_loaded = false;
        Ok(())
    }

    /// `MR1SetTable`: load a g(x) function table (built-in kernel).
    pub fn mr1_set_table(&mut self, g: GFunction) -> Result<(), Mr1Error> {
        let ev = g
            .build_evaluator()
            .map_err(|e| Mr1Error::Table(e.to_string()))?;
        self.mr1_set_table_raw(&ev)
    }

    /// `MR1SetTable` with a caller-built evaluator (arbitrary custom
    /// force — the hardware's defining feature).
    pub fn mr1_set_table_raw(&mut self, evaluator: &FunctionEvaluator) -> Result<(), Mr1Error> {
        if self.state != State::Ready {
            return Err(Mr1Error::Protocol("boards not initialized"));
        }
        self.system
            .as_mut()
            .expect("ready state has a system")
            .load_table(evaluator);
        self.table_loaded = true;
        Ok(())
    }

    /// Load the atom coefficient RAM (`aᵢⱼ`, `bᵢⱼ` matrices).
    pub fn mr1_set_coefficients(&mut self, a: &[Vec<f64>], b: &[Vec<f64>]) -> Result<(), Mr1Error> {
        if self.state != State::Ready {
            return Err(Mr1Error::Protocol("boards not initialized"));
        }
        self.system
            .as_mut()
            .expect("ready state has a system")
            .load_coefficients(&AtomCoefficients::new(a, b));
        Ok(())
    }

    /// `MR1calcvdw_block2`: the cell-index force calculation (eqs. 7–8).
    pub fn mr1_calcvdw_block2(
        &mut self,
        positions: &[Vec3],
        types: &[u8],
        jstore: &JStore,
    ) -> Result<MdgPassResult, Mr1Error> {
        self.calc(PipelineMode::Force, positions, types, jstore)
    }

    /// The potential-mode pass (evaluated every 100 steps in §5).
    pub fn mr1_calc_potential_block2(
        &mut self,
        positions: &[Vec3],
        types: &[u8],
        jstore: &JStore,
    ) -> Result<MdgPassResult, Mr1Error> {
        self.calc(PipelineMode::Potential, positions, types, jstore)
    }

    fn calc(
        &mut self,
        mode: PipelineMode,
        positions: &[Vec3],
        types: &[u8],
        jstore: &JStore,
    ) -> Result<MdgPassResult, Mr1Error> {
        if self.state != State::Ready {
            return Err(Mr1Error::Protocol("boards not initialized"));
        }
        if !self.table_loaded {
            return Err(Mr1Error::Protocol(
                "MR1SetTable must be called before MR1calcvdw_block2",
            ));
        }
        Ok(self
            .system
            .as_mut()
            .expect("ready state has a system")
            .calc_pass_with_jstore(mode, positions, types, jstore)?)
    }

    /// `MR1free`: release the boards.
    pub fn mr1_free(&mut self) -> Result<(), Mr1Error> {
        if self.state != State::Ready {
            return Err(Mr1Error::Protocol("nothing to free"));
        }
        self.system = None;
        self.state = State::Created;
        self.boards_requested = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdm_core::boxsim::SimBox;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn config(n: usize, l: f64) -> (SimBox, Vec<Vec3>, Vec<u8>) {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sb = SimBox::cubic(l);
        let pos = (0..n)
            .map(|_| Vec3::new(rng.gen::<f64>() * l, rng.gen::<f64>() * l, rng.gen::<f64>() * l))
            .collect();
        let ty = (0..n).map(|i| (i % 2) as u8).collect();
        (sb, pos, ty)
    }

    #[test]
    fn full_protocol_succeeds() {
        let (sb, pos, ty) = config(60, 12.0);
        let js = JStore::build(sb, &pos, &ty, 4.0);
        let mut lib = Mr1Library::new();
        lib.mr1_allocate_board(4).unwrap();
        lib.mr1_init().unwrap();
        lib.mr1_set_table(GFunction::Dispersion6Force).unwrap();
        lib.mr1_set_coefficients(
            &[vec![1.0, 1.0], vec![1.0, 1.0]],
            &[vec![-6.0, -6.0], vec![-6.0, -6.0]],
        )
        .unwrap();
        let out = lib.mr1_calcvdw_block2(&pos, &ty, &js).unwrap();
        assert_eq!(out.values.len(), 60);
        lib.mr1_free().unwrap();
    }

    #[test]
    fn calc_without_table_is_protocol_error() {
        let (sb, pos, ty) = config(20, 12.0);
        let js = JStore::build(sb, &pos, &ty, 4.0);
        let mut lib = Mr1Library::new();
        lib.mr1_allocate_board(2).unwrap();
        lib.mr1_init().unwrap();
        let err = lib.mr1_calcvdw_block2(&pos, &ty, &js).unwrap_err();
        assert!(matches!(err, Mr1Error::Protocol(_)));
    }

    #[test]
    fn init_without_allocate_is_protocol_error() {
        let mut lib = Mr1Library::new();
        assert!(matches!(lib.mr1_init(), Err(Mr1Error::Protocol(_))));
    }

    #[test]
    fn a_stale_jstore_is_an_error_that_bills_nothing() {
        use crate::system::RealSpaceMode;
        let (sb, pos, ty) = config(60, 12.0);
        let js = JStore::build(sb, &pos, &ty, 4.0);
        let mut lib = Mr1Library::new();
        lib.mr1_allocate_board(4).unwrap();
        lib.mr1_init().unwrap();
        lib.mr1_set_table(GFunction::Dispersion6Force).unwrap();
        lib.mr1_set_coefficients(&[vec![1.0; 2], vec![1.0; 2]], &[vec![-6.0; 2], vec![-6.0; 2]])
            .unwrap();
        // One particle moved after the store was built, one species
        // changed, one particle dropped.
        let mut moved = pos.clone();
        moved[7] += Vec3::new(0.25, 0.0, 0.0);
        let mut retyped = ty.clone();
        retyped[3] ^= 1;
        let stale = [(&moved[..], &ty[..], 7), (&pos[..], &retyped[..], 3), (&pos[..59], &ty[..59], 59)];
        for mode in [RealSpaceMode::HardwareFaithful, RealSpaceMode::SoftwareN3l] {
            lib.system.as_mut().unwrap().set_real_space_mode(mode);
            lib.mr1_calcvdw_block2(&pos, &ty, &js).unwrap();
            let billed = lib.system.as_ref().unwrap().board_meters();
            assert!(billed.iter().any(|&(ops, _)| ops > 0), "{mode:?}");
            for (positions, types, particle) in stale {
                for result in [
                    lib.mr1_calcvdw_block2(positions, types, &js),
                    lib.mr1_calc_potential_block2(positions, types, &js),
                ] {
                    let want = Mr1Error::Board(MdgBoardError::StaleJStore { particle });
                    assert_eq!(result.unwrap_err(), want, "{mode:?}");
                }
            }
            assert_eq!(lib.system.as_ref().unwrap().board_meters(), billed, "{mode:?}: a refused pass billed");
        }
    }

    #[test]
    fn table_swap_between_passes() {
        // The multi-pass composition pattern: same j-store, different
        // tables/coefficients per pass.
        let (sb, pos, ty) = config(40, 12.0);
        let js = JStore::build(sb, &pos, &ty, 4.0);
        let mut lib = Mr1Library::new();
        lib.mr1_allocate_board(2).unwrap();
        lib.mr1_init().unwrap();
        lib.mr1_set_table(GFunction::Dispersion6Force).unwrap();
        lib.mr1_set_coefficients(
            &[vec![1.0, 1.0], vec![1.0, 1.0]],
            &[vec![-6.0, -6.0], vec![-6.0, -6.0]],
        )
        .unwrap();
        let pass6 = lib.mr1_calcvdw_block2(&pos, &ty, &js).unwrap();
        lib.mr1_set_table(GFunction::Dispersion8Force).unwrap();
        lib.mr1_set_coefficients(
            &[vec![1.0, 1.0], vec![1.0, 1.0]],
            &[vec![-8.0, -8.0], vec![-8.0, -8.0]],
        )
        .unwrap();
        let pass8 = lib.mr1_calcvdw_block2(&pos, &ty, &js).unwrap();
        // Different kernels, different answers.
        assert_ne!(pass6.values[0], pass8.values[0]);
    }
}
