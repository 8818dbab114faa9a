//! Offline stand-in for `parking_lot`: the repository declares the dependency but calls nothing from it.
